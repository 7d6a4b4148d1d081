package repro.graph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Summary statistics of a directed graph (Table-2-style row). */
final case class GraphStats(n: Long, m: Long, nSrc: Long, nDst: Long,
                            maxOutDeg: Long, maxInDeg: Long)

object GraphStats {

  /** The summary of a graph from its degree rows (id, side 0=src/1=dst,
    * degree), as [[DigraphOps.degrees]] returns them: every source has one
    * side-0 row, every destination one side-1 row, and the out-degrees sum
    * to m.
    */
  def of(rows: Array[(Long, Int, Long)]): GraphStats = {
    val (out, in) = rows.partition(_._2 == 0)
    GraphStats(rows.iterator.map(_._1).distinct.size.toLong, out.iterator.map(_._3).sum,
               out.length.toLong, in.length.toLong,
               out.iterator.map(_._3).maxOption.getOrElse(0L), in.iterator.map(_._3).maxOption.getOrElse(0L))
  }
}

/** DataFrame operations over simple directed graphs.
  *
  * Edges are DataFrames with two LONG columns ``src`` and ``dst``. All
  * algorithms in this repo canonicalize first: self-loops dropped,
  * duplicate edges deduped (the paper's datasets are simple digraphs).
  */
object DigraphOps {

  /** Normalize an edge DataFrame: long-typed columns, no self-loops, deduped. */
  def canonicalize(edges: DataFrame): DataFrame =
    edges
      .select(col("src").cast("long").as("src"), col("dst").cast("long").as("dst"))
      .where(col("src") =!= col("dst"))
      .dropDuplicates("src", "dst")

  /** The out- and in-degrees of ``edges`` as rows (id, side 0=src/1=dst,
    * degree): one exploded aggregation, collected.
    */
  def degrees(edges: DataFrame): Array[(Long, Int, Long)] =
    edges.select(
      explode(array(
        struct(col("src").as("id"), lit(0).as("side")),
        struct(col("dst").as("id"), lit(1).as("side"))
      )).as("v")
    ).select(col("v.id").as("id"), col("v.side").as("side"))
      .groupBy("id", "side")
      .agg(count(lit(1)).as("cnt"))
      .collect()
      .map(r => (r.getLong(0), r.getInt(1), r.getLong(2)))

  /** Directed density ρ(S,T) = |E(S,T)| / sqrt(|S|·|T|) (Kannan–Vinay). */
  def density(m: Long, sSize: Long, tSize: Long): Double =
    if (sSize <= 0 || tSize <= 0) 0.0
    else m.toDouble / math.sqrt(sSize.toDouble * tSize.toDouble)

  /** Fixed-ratio surrogate ρ'_a(S,T) = 2m / (|S|/√a + √a·|T|). AM–GM gives
    * ρ'_a ≤ ρ with equality iff |S|/|T| = a.
    */
  def surrogate(m: Long, sSize: Long, tSize: Long, a: Double): Double =
    if (sSize <= 0 || tSize <= 0) 0.0
    else 2.0 * m / (sSize / math.sqrt(a) + math.sqrt(a) * tSize)

  /** Graph summary statistics of ``edges`` (one degree round). */
  def stats(edges: DataFrame): GraphStats = GraphStats.of(degrees(edges))

  /** Build an edge DataFrame from in-memory pairs (tests, toy graphs). */
  def edgesDf(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame = {
    import spark.implicits._
    pairs.toDF("src", "dst")
  }
}
