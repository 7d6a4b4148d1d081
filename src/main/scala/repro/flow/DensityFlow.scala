package repro.flow

import repro.core.{Candidate, CoreSub}

/** A scaled capacity of the network at ratio p/q and threshold mc/d
  * overflows a ``Long``.
  */
final class CapacityOverflow(val p: Long, val q: Long, val d: Long, val m: Long, val mc: Long)
    extends ArithmeticException(s"flow capacities overflow a Long at ratio $p/$q: D=$d, m=$m, m_c=$mc")

/** The fixed-ratio density decision network, in exact integers.
  *
  * At ratio a = p/q, a pair (S,T) beats the threshold λ = mc/d when
  * E(S,T)·d > mc·(q|S| + p|T|), i.e. E − α|S| − β|T| > 0 with α = q·mc/d
  * and β = p·mc/d. Goldberg's vertex-only network decides it: arcs s→u
  * (cap outdeg_T(u)) and u→t (cap α) for u ∈ S, u→v (cap 1) per edge,
  * v→t (cap β) for v ∈ T. A source side {s} ∪ S' ∪ T' cuts
  * m − (E(S',T') − α|S'| − β|T'|), so the min cut is m − max(E − α|S| − β|T|).
  * Every arc is scaled by d, which makes all capacities ``Long``s and the
  * decision exact: some pair beats λ iff the max flow is below d·m. The
  * minimal min-cut source side is the (minimal) argmax.
  */
object DensityFlow {

  /** Size (node count) of the network that ``bestAbove`` would build. */
  def networkNodes(sub: CoreSub): Int = 2 + sub.sSize + sub.tSize

  /** The argmax of E·d − mc·(q|S| + p|T|) over ``sub`` if that maximum is
    * positive, i.e. if the argmax beats the threshold mc/d at ratio p/q;
    * None otherwise. Throws [[CapacityOverflow]] if d·m, q·mc or p·mc
    * exceeds a ``Long``.
    */
  def bestAbove(sub: CoreSub, p: Long, q: Long, mc: Long, d: Long): Option[Candidate] = {
    if (sub.isEmpty) return None
    val g  = sub.host
    val ns = sub.sSize
    val (total, sCost, tCost) =
      try (Math.multiplyExact(d, sub.m.toLong), Math.multiplyExact(q, mc), Math.multiplyExact(p, mc))
      catch { case _: ArithmeticException => throw new CapacityOverflow(p, q, d, sub.m.toLong, mc) }

    // node layout: 0 = source, 1 = sink, 2 + i = i-th vertex of S,
    // 2 + ns + j = j-th vertex of T
    val tNode = new Array[Int](g.n)
    for (j <- sub.tIdx.indices) tNode(sub.tIdx(j)) = 2 + ns + j
    val dinic = new Dinic(2 + ns + sub.tSize)
    for (i <- 0 until ns) {
      val u = sub.sIdx(i)
      var deg = 0L
      var e = g.outOff(u)
      while (e < g.outOff(u + 1)) {
        val v = g.outAdj(e)
        if (sub.inT(v)) { dinic.addEdge(2 + i, tNode(v), d); deg += 1 }
        e += 1
      }
      dinic.addEdge(0, 2 + i, deg * d)
      dinic.addEdge(2 + i, 1, sCost)
    }
    for (j <- sub.tIdx.indices) dinic.addEdge(2 + ns + j, 1, tCost)

    if (dinic.maxflow(0, 1) == total) return None // the maximum is 0: nothing beats mc/d
    val side = dinic.minCutSourceSide(0)
    val inS = new Array[Boolean](g.n)
    val inT = new Array[Boolean](g.n)
    for (i <- 0 until ns) inS(sub.sIdx(i)) = side(2 + i)
    for (j <- sub.tIdx.indices) inT(sub.tIdx(j)) = side(2 + ns + j)
    var e = 0
    for (u <- sub.sIdx if inS(u); k <- g.outOff(u) until g.outOff(u + 1)) if (inT(g.outAdj(k))) e += 1
    val best = new CoreSub(g, inS, inT, e)
    Some(Candidate(best.s, best.t, e.toLong))
  }
}
