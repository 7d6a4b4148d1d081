package repro.core

import repro.graph.LocalDigraph

/** Reference [x,y]-core peeling on a driver-local digraph.
  *
  * The [x,y]-core of G is the largest pair (S,T) such that every u∈S has at
  * least x out-neighbours in T and every v∈T has at least y in-neighbours
  * in S. Valid pairs are closed under union, so the maximal core is unique
  * and is computed by iteratively deleting violators (queue-based, exact).
  *
  * This is the oracle the Spark implementation (``XYCore``) is tested
  * against, and the engine used by seed-loop correctness tests.
  */
object LocalXYCore {

  /** Peel g down to its [x,y]-core. Requires x ≥ 1 and y ≥ 1. */
  def peel(g: LocalDigraph, x: Int, y: Int): CoreSub = peel(CoreSub.whole(g), x, y)

  /** The [x,y]-core of ``from``'s host, peeled from ``from``, which must
    * contain it (the whole host, or a core at (x',y') ≤ (x,y)).
    */
  def peel(from: CoreSub, x: Int, y: Int): CoreSub = {
    require(x >= 1 && y >= 1, s"need x,y >= 1, got [$x,$y]")
    val g = from.host
    val inS = from.inS.clone()
    val inT = from.inT.clone()
    // degrees inside the alive pair (S,T), kept exact as vertices leave it
    val outd = new Array[Int](g.n)
    val ind  = new Array[Int](g.n)
    for (u <- from.sIdx) {
      var e = g.outOff(u)
      while (e < g.outOff(u + 1)) {
        val v = g.outAdj(e)
        if (inT(v)) { outd(u) += 1; ind(v) += 1 }
        e += 1
      }
    }
    // removals of w from the S side as w*2, from the T side as w*2+1; a
    // vertex is pushed once per side, when its degree falls below the bound
    val stack = new Array[Int](2 * g.n)
    var top = 0
    for (u <- from.sIdx if outd(u) < x) { stack(top) = u * 2; top += 1 }
    for (v <- from.tIdx if ind(v) < y) { stack(top) = v * 2 + 1; top += 1 }
    var m = from.m
    while (top > 0) {
      top -= 1
      val code = stack(top)
      val w = code / 2
      if (code % 2 == 0) {
        if (inS(w)) {
          inS(w) = false
          m -= outd(w)
          // removing w from S lowers in-degree of its out-neighbours in T
          var e = g.outOff(w)
          while (e < g.outOff(w + 1)) {
            val nb = g.outAdj(e)
            if (inT(nb)) {
              ind(nb) -= 1
              if (ind(nb) == y - 1) { stack(top) = nb * 2 + 1; top += 1 }
            }
            e += 1
          }
        }
      } else {
        if (inT(w)) {
          inT(w) = false
          m -= ind(w)
          var e = g.inOff(w)
          while (e < g.inOff(w + 1)) {
            val nb = g.inAdj(e)
            if (inS(nb)) {
              outd(nb) -= 1
              if (outd(nb) == x - 1) { stack(top) = nb * 2; top += 1 }
            }
            e += 1
          }
        }
      }
    }
    if (m == 0) CoreSub.empty else new CoreSub(g, inS, inT, m)
  }
}
