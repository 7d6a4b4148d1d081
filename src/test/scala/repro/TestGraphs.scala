package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.graph.{DigraphOps, GraphStats, LocalDigraph}
import scala.util.Random

/** Deterministic random digraphs for tests (driver-side, seed-exact). */
object TestGraphs {

  /** ~m distinct random edges over vertices 1..n, no self-loops. */
  def randomPairs(n: Int, m: Int, seed: Long): Seq[(Long, Long)] = {
    val rnd = new Random(seed)
    Iterator
      .continually((rnd.nextInt(n).toLong + 1, rnd.nextInt(n).toLong + 1))
      .filter(p => p._1 != p._2)
      .take(m * 2)
      .toSeq
      .distinct
      .take(m)
  }

  def randomLocal(n: Int, m: Int, seed: Long): LocalDigraph =
    LocalDigraph.fromPairs(randomPairs(n, m, seed))

  def df(spark: SparkSession, pairs: Seq[(Long, Long)]): DataFrame =
    DigraphOps.edgesDf(spark, pairs)

  /** Skewed random digraph: preferential-style endpoints (hubs). */
  def skewedPairs(n: Int, m: Int, seed: Long): Seq[(Long, Long)] = {
    val rnd = new Random(seed)
    def draw(): Long = {
      val u = rnd.nextDouble()
      math.min(n.toLong, math.max(1L, math.round(math.pow(1.0 / (u + 1e-9), 1.2))))
    }
    Iterator
      .continually((draw(), (draw() * 7919 % n) + 1))
      .filter(p => p._1 != p._2)
      .take(m * 2)
      .toSeq
      .distinct
      .take(m)
  }

  /** The edges of g as original id pairs. */
  def edgePairs(g: LocalDigraph): Seq[(Long, Long)] =
    (0 until g.m).map(i => (g.ids(g.src(i)), g.ids(g.dst(i))))

  /** |E(S,T)| for index-based membership masks. */
  def edgesBetween(g: LocalDigraph, inS: Array[Boolean], inT: Array[Boolean]): Long =
    (0 until g.m).count(i => inS(g.src(i)) && inT(g.dst(i))).toLong

  /** |E(S,T)| for original-id sets. */
  def edgesBetweenIds(g: LocalDigraph, s: Set[Long], t: Set[Long]): Long =
    edgesBetween(g, g.ids.map(s.contains), g.ids.map(t.contains))

  /** Inputs for checking graph summaries: the skewed graphs of
    * SparkCoreEngineSpec, an empty input, and inputs of only self-loops and
    * duplicates.
    */
  def statsInputs: Seq[(String, Seq[(Long, Long)])] =
    (1 to 4).map(seed => s"skewed seed=$seed" -> skewedPairs(50, 260, 600 + seed)) ++ Seq(
      "empty" -> Seq.empty,
      "only self-loops" -> Seq((1L, 1L), (2L, 2L), (2L, 2L)),
      "self-loops and duplicates" -> Seq((1L, 1L), (3L, 4L), (3L, 4L), (4L, 3L), (5L, 5L), (4L, 3L), (3L, 4L)))

  /** The summary statistics of g, counted on the driver. */
  def localStats(g: LocalDigraph): GraphStats =
    GraphStats(g.n.toLong, g.m.toLong, (0 until g.n).count(g.outDeg(_) > 0).toLong,
               (0 until g.n).count(g.inDeg(_) > 0).toLong,
               (0 until g.n).map(g.outDeg).maxOption.getOrElse(0).toLong,
               (0 until g.n).map(g.inDeg).maxOption.getOrElse(0).toLong)

  /** Distinct vertices (endpoints of at least one edge), column ``id``. */
  def vertices(edges: DataFrame): DataFrame =
    edges.select(col("src").as("id")).union(edges.select(col("dst").as("id"))).distinct()

  /** Out-degree per source vertex, columns ``id``, ``deg``. */
  def outDegrees(edges: DataFrame): DataFrame =
    edges.groupBy(col("src").as("id")).agg(count(lit(1)).as("deg"))

  /** In-degree per destination vertex, columns ``id``, ``deg``. */
  def inDegrees(edges: DataFrame): DataFrame =
    edges.groupBy(col("dst").as("id")).agg(count(lit(1)).as("deg"))

  /** Edges from S to T: broadcast semi-joins against vertex-id DataFrames
    * (column ``id``).
    */
  def pairSubgraph(edges: DataFrame, s: DataFrame, t: DataFrame): DataFrame =
    edges
      .join(broadcast(s.select(col("id").as("__s"))), col("src") === col("__s"), "left_semi")
      .join(broadcast(t.select(col("id").as("__t"))), col("dst") === col("__t"), "left_semi")

  /** ρ(S,T) computed from DataFrames (vertex-id sets in column ``id``). */
  def densityOf(edges: DataFrame, s: DataFrame, t: DataFrame): Double = {
    val sSize = s.select("id").distinct().count()
    val tSize = t.select("id").distinct().count()
    val m     = pairSubgraph(edges, s, t).count()
    DigraphOps.density(m, sSize, tSize)
  }
}
