package repro

import repro.core.Candidate
import repro.graph.LocalDigraph

/** Exhaustive, exact ground truth for the integer decision network: values
  * of E(S,T)/(q|S| + p|T|) at ratio a = p/q, as (numerator, denominator)
  * pairs compared by cross-multiplication. Tiny graphs only (n ≤ 10).
  */
object ExactRef {

  /** The value E/(q|S| + p|T|) of a candidate at ratio p/q. */
  def value(c: Candidate, p: Long, q: Long): (Long, Long) = (c.m, q * c.sSize + p * c.tSize)

  /** Sign of a/b − c/d for positive denominators. */
  def compare(x: (Long, Long), y: (Long, Long)): Int =
    java.lang.Long.compare(x._1 * y._2, y._1 * x._2)

  /** The value of every pair (S,T) of non-empty vertex sets. */
  def values(g: LocalDigraph, p: Long, q: Long): Seq[(Long, Long)] = {
    require(g.n <= 10, s"limited to n<=10, got ${g.n}")
    val outMask = new Array[Int](g.n)
    for (i <- 0 until g.m) outMask(g.src(i)) |= 1 << g.dst(i)
    val lim = 1 << g.n
    for (s <- 1 until lim; t <- 1 until lim) yield {
      val e = (0 until g.n).filter(u => (s & (1 << u)) != 0).map(u => Integer.bitCount(outMask(u) & t)).sum
      (e.toLong, q * Integer.bitCount(s) + p * Integer.bitCount(t))
    }
  }

  /** The largest value over all pairs. */
  def max(g: LocalDigraph, p: Long, q: Long): (Long, Long) =
    values(g, p, q).reduce((x, y) => if (compare(x, y) >= 0) x else y)
}
