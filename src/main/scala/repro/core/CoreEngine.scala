package repro.core

import org.apache.spark.sql.DataFrame
import repro.graph.{DigraphOps, GraphStats, LocalDigraph}

/** A computed [x,y]-core: side sizes and edge count up front, edges
  * materialized lazily (flow networks need them, size probes do not).
  */
trait CoreHandle {
  def x: Int
  def y: Int
  def sSize: Long
  def tSize: Long
  def m: Long
  def density: Double = DigraphOps.density(m, sSize, tSize)

  /** Driver-side pair-subgraph (used to build flow networks). */
  def sub(): CoreSub

  /** The core as an answer candidate (ids + exact edge count). */
  def candidate(): Candidate
}

/** Abstract [x,y]-core provider.
  *
  * The exact and approximation algorithms are written against this trait so
  * the same logic runs on the Spark dataflow implementation (production
  * path, benches) and on the in-memory reference (fast seed-loop tests,
  * and the oracle the Spark path is validated against).
  */
trait CoreEngine {

  /** Number of vertices of the host graph (bounds |S|, |T|). */
  def n: Long

  /** Number of edges of the host graph. */
  def m: Long

  /** The whole graph as a pair-subgraph (all sources, all destinations). */
  def fullSub(): CoreSub

  /** The [x,y]-core, warm-started from a superset core when available
    * (caller guarantees warm.x ≤ x and warm.y ≤ y). A handle this engine
    * did not make is ignored. None if empty.
    */
  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle]
}

/** Reference engine over a driver-local digraph. */
final class LocalCoreEngine(g: LocalDigraph) extends CoreEngine {
  import LocalCoreEngine.H

  def n: Long = g.n.toLong
  def m: Long = g.m.toLong

  private lazy val root: CoreSub = CoreSub.whole(g)
  def fullSub(): CoreSub = root

  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle] = {
    val from = warm match {
      case Some(h: H) if h.s.host eq g => h.s
      case _                           => root // another engine's handle: start from the root
    }
    val sub = LocalXYCore.peel(from, x, y)
    if (sub.isEmpty) None else Some(H(x, y, sub))
  }
}

object LocalCoreEngine {
  /** A core held on the driver, as masks over its engine's graph. */
  private final case class H(x: Int, y: Int, s: CoreSub) extends CoreHandle {
    def sSize: Long = s.sSize.toLong
    def tSize: Long = s.tSize.toLong
    def m: Long     = s.m.toLong
    def sub(): CoreSub = s
    def candidate(): Candidate = Candidate(s.s, s.t, s.m.toLong)
  }
}

/** Production engine: Spark dataflow peeling over cached edges, handing
  * small subgraphs to the driver.
  *
  * The hand-off rule (DESIGN.md, "Spark→driver hand-off"): before each
  * Spark degree round of a query at (x,y), if the alive pair-subgraph has at
  * most ``localCutoff`` edges it is collected once and kept as a driver-local
  * *root* keyed by (x,y). The alive set contains the [x',y']-core of G for
  * every x' ≥ x, y' ≥ y, and that core of the root equals the core of G, so
  * the root answers every later query it dominates without a Spark job. A
  * fixpoint above the budget is returned as a Spark handle. The whole graph
  * with m ≤ ``localCutoff`` is the root at (1,1); above the budget the
  * [1,1]-core comes from the setup degree round, with no further job.
  */
final class SparkCoreEngine(edges0: DataFrame, localCutoff: Long = 400000L) extends CoreEngine {
  import SparkCoreEngine.H

  /** Canonicalized, cached base edge set all cores derive from. */
  val base: DataFrame = DigraphOps.canonicalize(edges0).cache()

  /** One whole-graph degree round, run at the first ``n``, ``m`` or
    * ``stats``: the graph's summary and its [1,1]-core. Every source's
    * out-edges end at destinations and every destination's in-edges start
    * at sources, so all sources, all destinations and all m edges form the
    * [1,1]-core without a peel.
    */
  private lazy val summary: (GraphStats, SparkCore) = {
    val rows = XYCore.degreeRound(base, null, null)
    val st = GraphStats.of(rows)
    (st, SparkCore(1, 1, rows.collect { case (id, 0, _) => id }.sorted,
                   rows.collect { case (id, 1, _) => id }.sorted, st.m))
  }
  def stats: GraphStats = summary._1
  def n: Long = stats.n
  def m: Long = stats.m

  /** Roots by key; an antichain, as a new root replaces the roots it dominates. */
  private var roots = List.empty[((Int, Int), LocalCoreEngine)]

  /** The root that answers (x,y): one it dominates, or the whole graph as
    * the root at (1,1) when m fits the budget (no degree round runs first).
    */
  private def rootFor(x: Int, y: Int): Option[LocalCoreEngine] =
    roots.collectFirst { case ((rx, ry), r) if rx <= x && ry <= y => r }
      .orElse(Option.when(m <= localCutoff)(addRoot(1, 1, base)))

  private def addRoot(x: Int, y: Int, edges: DataFrame): LocalCoreEngine = {
    val r = new LocalCoreEngine(LocalDigraph.fromEdges(edges))
    roots = ((x, y), r) :: roots.filterNot { case ((rx, ry), _) => x <= rx && y <= ry }
    r
  }

  private lazy val collectedFull: CoreSub = CoreSub.whole(LocalDigraph.fromEdges(base))

  // a root at (1,1) contains the [1,1]-core, which is the whole graph
  def fullSub(): CoreSub = rootFor(1, 1).fold(collectedFull)(_.fullSub())

  def core(x: Int, y: Int, warm: Option[CoreHandle] = None): Option[CoreHandle] = {
    // a handle warm-starts only the root, or the engine, that made it
    rootFor(x, y) match {
      case Some(r) => r.core(x, y, warm)
      case None if x == 1 && y == 1 =>
        val whole = summary._2
        if (whole.isEmpty) None else Some(H(this, whole))
      case None =>
        XYCore.shrink(base, x, y, warm.collect { case h: H if h.owner eq this => h.core }, localCutoff) match {
          case Right(c) => if (c.isEmpty) None else Some(H(this, c))
          case Left(a)  => addRoot(x, y, XYCore.restrict(base, a.s, a.t)).core(x, y)
        }
    }
  }

  def release(): Unit = { base.unpersist(); () }
}

object SparkCoreEngine {
  /** A core held as Spark alive sets over its ``owner``'s cached edges. */
  private final case class H(owner: SparkCoreEngine, core: SparkCore) extends CoreHandle {
    def x: Int      = core.x
    def y: Int      = core.y
    def sSize: Long = core.s.length.toLong
    def tSize: Long = core.t.length.toLong
    def m: Long     = core.m
    def sub(): CoreSub = XYCore.collectSub(owner.base, core)
    def candidate(): Candidate = Candidate(core.s, core.t, core.m)
  }
}
