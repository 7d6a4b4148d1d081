package repro.core

import repro.graph.{DigraphOps, LocalDigraph}

/** A pair-subgraph (S, T, E(S,T)) of a driver-local host graph, held in the
  * host's index space: S/T membership masks over ``host``'s indices 0..n-1
  * and the edge count ``m`` of E(S,T).
  *
  * This is the common currency between the core decomposition (which
  * produces [x,y]-cores as (S,T) pairs) and the flow machinery (which
  * builds a network over exactly such a pair). Original vertex ids are
  * mapped back only by the id accessors ``s``, ``t`` and ``edges``.
  */
final class CoreSub(val host: LocalDigraph, val inS: Array[Boolean], val inT: Array[Boolean], val m: Int) {
  /** Host indices of S and of T, ascending. */
  val sIdx: Array[Int] = CoreSub.members(inS)
  val tIdx: Array[Int] = CoreSub.members(inT)

  def sSize: Int      = sIdx.length
  def tSize: Int      = tIdx.length
  def isEmpty: Boolean = m == 0
  def nonEmpty: Boolean = !isEmpty

  /** Sorted original ids of S and of T. */
  def s: Array[Long] = sIdx.map(host.ids).sorted
  def t: Array[Long] = tIdx.map(host.ids).sorted

  /** E(S,T) as original id pairs. */
  def edges: Array[(Long, Long)] =
    for (u <- sIdx; e <- host.outOff(u) until host.outOff(u + 1) if inT(host.outAdj(e)))
      yield (host.ids(u), host.ids(host.outAdj(e)))

  def density: Double = DigraphOps.density(m.toLong, sSize.toLong, tSize.toLong)
}

object CoreSub {
  /** The whole host: every vertex with an out-edge in S, with an in-edge in T. */
  def whole(g: LocalDigraph): CoreSub =
    new CoreSub(g, Array.tabulate(g.n)(g.outDeg(_) > 0), Array.tabulate(g.n)(g.inDeg(_) > 0), g.m)

  val empty: CoreSub = whole(LocalDigraph.fromPairs(Seq.empty))

  private def members(in: Array[Boolean]): Array[Int] = {
    val b = Array.newBuilder[Int]
    var i = 0
    while (i < in.length) { if (in(i)) b += i; i += 1 }
    b.result()
  }
}

/** A candidate (S,T) answer with its exact edge count — the unit tracked by
  * the exact search and returned by approximation algorithms.
  */
final case class Candidate(s: Array[Long], t: Array[Long], m: Long) {
  def sSize: Int = s.length
  def tSize: Int = t.length
  def density: Double = DigraphOps.density(m, sSize.toLong, tSize.toLong)
  def surrogate(a: Double): Double = DigraphOps.surrogate(m, sSize.toLong, tSize.toLong, a)
}
