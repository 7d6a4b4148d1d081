package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.graph.{DigraphOps, LocalDigraph}

/** A computed [x,y]-core: the alive side sets and the edge count between
  * them. ``s``/``t`` are sorted original vertex ids. The induced edge list
  * itself stays distributed; ``XYCore.collectSub`` materializes it.
  */
final case class SparkCore(x: Int, y: Int, s: Array[Long], t: Array[Long], m: Long) {
  def isEmpty: Boolean  = s.isEmpty || t.isEmpty || m == 0
  def nonEmpty: Boolean = !isEmpty
}

/** Where [[XYCore.shrink]] stopped short of the [x,y]-core: alive sides
  * (sorted ids) that still contain it, with at most ``m`` edges between them.
  */
final case class Alive(s: Array[Long], t: Array[Long], m: Long)

/** Degree rounds at [x,y] did not reach a fixpoint; the alive sides still
  * had ``sSize`` and ``tSize`` vertices after ``iterations`` rounds.
  */
final class PeelDiverged(val x: Int, val y: Int, val iterations: Int, val sSize: Int, val tSize: Int)
    extends RuntimeException(s"peeling [$x,$y] did not converge after $iterations rounds; " +
      s"alive |S|=$sSize |T|=$tSize")

/** Iterative [x,y]-core peeling as Spark dataflow.
  *
  * The loop keeps the *edge set* in Spark and the (much smaller) alive
  * vertex sets on the driver: each round is a single job that filters the
  * cached base edges by the broadcast alive sets, computes out- and
  * in-degrees in one exploded aggregation, and collects the surviving
  * vertices. Lineage depth stays constant because every round re-derives
  * from the cached base edges. Batch removal converges to the same unique
  * maximal core as one-at-a-time peeling (valid pairs are union-closed).
  */
object XYCore {

  /** One degree round, one aggregation: the out- and in-degrees of the
    * pair-subgraph of ``base`` on (s, t) — both null = all of ``base`` — as
    * rows (id, side 0=src/1=dst, degree).
    */
  def degreeRound(base: DataFrame, s: Array[Long], t: Array[Long]): Array[(Long, Int, Long)] =
    DigraphOps.degrees(if (s == null) base else restrict(base, s, t))

  /** The edges of ``base`` from ``s`` into ``t`` (broadcast semi-joins). */
  def restrict(base: DataFrame, s: Array[Long], t: Array[Long]): DataFrame = {
    val spark = base.sparkSession
    import spark.implicits._
    base
      .join(broadcast(s.toSeq.toDF("__s")), col("src") === col("__s"), "left_semi")
      .join(broadcast(t.toSeq.toDF("__t")), col("dst") === col("__t"), "left_semi")
  }

  /** Peel ``base`` (cached edges, columns src/dst) down to its [x,y]-core.
    * ``warm`` optionally restricts the search to a superset core (valid
    * whenever warm.x ≤ x and warm.y ≤ y, by nestedness).
    */
  def peel(base: DataFrame, x: Int, y: Int, warm: Option[SparkCore] = None): SparkCore =
    shrink(base, x, y, warm, limit = -1L)
      .getOrElse(sys.error("an alive set never has a negative edge count"))

  /** Degree rounds as in [[peel]], stopping before any round whose alive
    * pair-subgraph is known to have at most ``limit`` edges. Right: the
    * [x,y]-core, empty or with more than ``limit`` edges. Left: the alive
    * sides at the stop, which contain the [x',y']-core for every x' ≥ x,
    * y' ≥ y.
    */
  def shrink(base: DataFrame, x: Int, y: Int, warm: Option[SparkCore],
             limit: Long): Either[Alive, SparkCore] = {
    require(x >= 1 && y >= 1, s"need x,y >= 1, got [$x,$y]")
    warm.foreach { w =>
      require(w.x <= x && w.y <= y, s"invalid warm start [${w.x},${w.y}] for [$x,$y]")
    }
    val empty = Right(SparkCore(x, y, Array.empty, Array.empty, 0L))
    if (warm.exists(_.isEmpty)) return empty
    var sAlive: Array[Long] = warm.map(_.s).orNull // null = unrestricted
    var tAlive: Array[Long] = warm.map(_.t).orNull
    var mAlive: Long = warm.fold(Long.MaxValue)(_.m) // upper bound on alive edges

    var iterations = 0
    while (true) {
      if (sAlive != null && mAlive <= limit) return Left(Alive(sAlive, tAlive, mAlive))
      iterations += 1
      // sAlive is set after the first round
      if (iterations >= 10000) throw new PeelDiverged(x, y, iterations - 1, sAlive.length, tAlive.length)
      val rows = degreeRound(base, sAlive, tAlive)
      val curM = rows.collect { case (_, 0, c) => c }.sum
      val newS = rows.collect { case (id, 0, c) if c >= x => id }.sorted
      val newT = rows.collect { case (id, 1, c) if c >= y => id }.sorted
      if (newS.isEmpty || newT.isEmpty) return empty
      val stable = sAlive != null &&
        newS.length == sAlive.length && newT.length == tAlive.length
      // Fixpoint: no vertex fell below threshold, so every edge of the
      // round survived; m is the sum of all out-degree rows.
      if (stable && curM > limit) return Right(SparkCore(x, y, newS, newT, curM))
      sAlive = newS
      tAlive = newT
      mAlive = curM
    }
    sys.error("unreachable")
  }

  /** The distributed edge set of a computed core. */
  def coreEdges(base: DataFrame, core: SparkCore): DataFrame =
    if (core.isEmpty) base.limit(0) else restrict(base, core.s, core.t)

  /** Materialize a core's pair-subgraph on the driver (for flow networks).
    * Every vertex of a non-empty core has an edge in it, so the collected
    * edges are the whole of their graph.
    */
  def collectSub(base: DataFrame, core: SparkCore): CoreSub =
    if (core.isEmpty) CoreSub.empty else CoreSub.whole(LocalDigraph.fromEdges(coreEdges(base, core)))
}
