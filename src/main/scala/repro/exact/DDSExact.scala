package repro.exact

import repro.core.{Candidate, CoreEngine, CoreHandle, MaxCore}
import repro.flow.DensityFlow

/** Exact directed densest subgraph discovery.
  *
  * Three modes sharing the same per-ratio machinery:
  *
  *  - ``Baseline``: the classical algorithm — enumerate every candidate
  *    ratio p/q (p,q ≤ n) and solve flows on the full graph. O(n²) ratio
  *    probes; this is the algorithm the paper is orders of magnitude
  *    faster than.
  *  - ``DC``: divide-and-conquer over ratio space. After probing ratio a
  *    with exact surrogate optimum o_a, every ratio b with
  *    φ(a,b) ≥ o_a/ρ_best satisfies ρ*(b) ≤ o_a/φ(a,b) ≤ ρ_best, so the
  *    log-symmetric interval [a/r, a·r] (r = pruneRadius(o_a/ρ_best)) is
  *    pruned; recursion continues outside, terminating when Stern–Brocot
  *    certifies an interval ratio-free. Flows still on the full graph.
  *  - ``CoreExact``: DC plus [x,y]-core pruning — the argmax at threshold
  *    g and ratio a lies in the [⌈g/(2√a)⌉, ⌈g·√a/2⌉]-core, so each flow
  *    network is built on that (shrinking) core; the search is seeded with
  *    the max-x·y core (CoreApprox), whose density is ≥ ρopt/2. With
  *    a = p/q and g the surrogate of a candidate (m_c, S_c, T_c), the core
  *    is [⌈q·m_c/D⌉, ⌈p·m_c/D⌉] with D = q|S_c| + p|T_c|, in integers.
  *
  * Per ratio, the surrogate maximum is found by Dinkelbach iteration:
  * repeat min-cut at g = current candidate's surrogate until no strictly
  * better pair exists; the final candidate is the exact argmax (values
  * strictly increase and are finitely many).
  */
object DDSExact {

  sealed trait Mode
  object Mode {
    case object Baseline  extends Mode
    case object DC        extends Mode
    case object CoreExact extends Mode
  }

  final case class Config(mode: Mode = Mode.CoreExact,
                          wallBudgetMs: Long = Long.MaxValue)

  final case class Result(best: Candidate,
                          probes: Int,
                          flows: Int,
                          flowNodes: Vector[Int],
                          elapsedMs: Long,
                          dnf: Boolean,
                          maxXY: Option[(Int, Int)]) {
    def density: Double = best.density
  }

  def run(engine: CoreEngine, cfg: Config = Config()): Result = {
    val start = System.nanoTime()
    def elapsedMs = (System.nanoTime() - start) / 1000000L

    // CoreExact seeds with the max-x·y core: None iff there are no edges, and
    // its density ≥ √(x*·y*) ≥ 1. DC and Baseline flow on the whole graph,
    // seeded with one edge (density 1 ≤ ρopt).
    lazy val full = engine.fullSub()
    val maxXY = if (cfg.mode == Mode.CoreExact) MaxCore.maxXY(engine) else None
    val maxXYInfo = maxXY.map(mx => (mx.x, mx.y))
    val seed =
      if (cfg.mode == Mode.CoreExact) maxXY.map(_.candidate)
      else full.edges.headOption.map { case (u, v) => Candidate(Array(u), Array(v), 1L) }
    var best: Candidate = seed match {
      case Some(c) => c
      case None =>
        return Result(Candidate(Array.empty, Array.empty, 0L), 0, 0, Vector.empty, elapsedMs, dnf = false, None)
    }

    val n = engine.n
    var probes = 0
    var flows = 0
    val flowNodes = Vector.newBuilder[Int]
    var dnf = false

    def overBudget: Boolean = elapsedMs > cfg.wallBudgetMs

    /** Exact surrogate argmax at ratio p/q. A candidate c is beaten at p/q
      * by a pair with E'·D > m_c·(q|S'| + p|T'|), D = q|S_c| + p|T_c|.
      */
    def probeRatio(p: Long, q: Long): Candidate = {
      var cand = best
      var warm: Option[CoreHandle] = None
      var iter = 0
      while (true) {
        iter += 1
        if (iter > 1000) throw new DinkelbachDiverged(p, q, iter - 1, cand)
        val d = Math.addExact(Math.multiplyExact(q, cand.sSize.toLong), Math.multiplyExact(p, cand.tSize.toLong))
        val sub = cfg.mode match {
          case Mode.CoreExact =>
            // the argmax beating m_c/D has out-degrees ≥ q·m_c/D, in-degrees ≥ p·m_c/D
            val x = math.max(1L, ceilDiv(Math.multiplyExact(q, cand.m), d)).toInt
            val y = math.max(1L, ceilDiv(Math.multiplyExact(p, cand.m), d)).toInt
            val w = warm.filter(h => h.x <= x && h.y <= y)
            engine.core(x, y, w) match {
              case None    => return cand
              case Some(h) => warm = Some(h); h.sub()
            }
          case _ => full
        }
        flows += 1
        flowNodes += DensityFlow.networkNodes(sub)
        DensityFlow.bestAbove(sub, p, q, cand.m, d) match {
          case None => return cand
          case Some(c2) =>
            cand = c2
            if (c2.density > best.density) best = c2
        }
      }
      sys.error("unreachable")
    }

    cfg.mode match {
      case Mode.Baseline =>
        // all candidate ratios p/q in reduced form, ascending
        val ratios = {
          val buf = scala.collection.mutable.ArrayBuffer.empty[(Long, Long)]
          val nn = n.toInt
          var p = 1
          while (p <= nn) {
            var q = 1
            while (q <= nn) {
              if (gcd(p, q) == 1) buf += ((p.toLong, q.toLong))
              q += 1
            }
            p += 1
          }
          buf.sortWith((a, b) => a._1 * b._2 < b._1 * a._2)
        }
        val it = ratios.iterator
        while (it.hasNext && !dnf) {
          if (overBudget) dnf = true
          else {
            val (p, q) = it.next()
            probeRatio(p, q)
            probes += 1
          }
        }

      case Mode.DC | Mode.CoreExact =>
        val stack = scala.collection.mutable.Stack[(Double, Double)]()
        stack.push((1.0 / (n + 1.0), n + 1.0))
        while (stack.nonEmpty && !dnf) {
          if (overBudget) { dnf = true }
          else {
            val (lo, hi) = stack.pop()
            RatioUtils.simplestBetween(lo, hi) match {
              case None => ()
              case Some((p, q)) if p > n || q > n => () // no candidate ratio inside
              case Some((p, q)) =>
                val a = p.toDouble / q
                val oA = probeRatio(p, q).surrogate(a)
                probes += 1
                val theta = math.min(1.0, oA / math.max(best.density, 1e-12))
                val r = RatioUtils.pruneRadius(theta)
                val rSafe = math.max(r, 1.0 + 1.0 / (2.0 * n * math.max(p, q)))
                if (a / rSafe > lo) stack.push((lo, a / rSafe))
                if (a * rSafe < hi) stack.push((a * rSafe, hi))
            }
          }
        }
    }

    Result(best, probes, flows, flowNodes.result(), elapsedMs, dnf, maxXYInfo)
  }

  private def ceilDiv(a: Long, b: Long): Long = -Math.floorDiv(-a, b)

  @annotation.tailrec
  private def gcd(a: Int, b: Int): Int = if (b == 0) a else gcd(b, a % b)
}

/** Dinkelbach iteration at ratio p/q did not converge. */
final class DinkelbachDiverged(val p: Long, val q: Long, val iterations: Int, val candidate: Candidate)
    extends RuntimeException(s"Dinkelbach did not converge at ratio $p/$q after $iterations iterations; " +
      s"candidate |S|=${candidate.sSize} |T|=${candidate.tSize} m=${candidate.m}")
