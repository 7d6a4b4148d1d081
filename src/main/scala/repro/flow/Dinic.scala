package repro.flow

/** Dinic max-flow over integer capacities, with min-cut extraction.
  *
  * The exact DDS algorithm needs a min s-t cut per density probe; the
  * paper's point is that core pruning makes these instances small, so a
  * driver-local solver is the right substrate. Capacities are ``Long``s
  * (``DensityFlow`` scales its rational capacities to integers), so flows
  * and cuts are exact. The caller keeps the total source capacity below
  * 2^63.
  */
final class Dinic(val n: Int) {
  private var head = new Array[Int](16) // edge -> head vertex
  private var cap  = new Array[Long](16)
  private var nxt  = new Array[Int](16) // edge -> next edge of same tail
  private var edges = 0
  private val firstOf = Array.fill(n)(-1) // vertex -> first edge

  private def push(u: Int, v: Int, c: Long): Unit = {
    if (edges == head.length) {
      head = java.util.Arrays.copyOf(head, 2 * edges)
      cap = java.util.Arrays.copyOf(cap, 2 * edges)
      nxt = java.util.Arrays.copyOf(nxt, 2 * edges)
    }
    head(edges) = v; cap(edges) = c; nxt(edges) = firstOf(u); firstOf(u) = edges
    edges += 1
  }

  /** Add a directed edge u→v with capacity c (reverse edge capacity 0).
    * Returns the forward edge index (even); reverse is index+1.
    */
  def addEdge(u: Int, v: Int, c: Long): Int = {
    require(c >= 0L, s"negative capacity $c")
    val id = edges
    push(u, v, c)
    push(v, u, 0L)
    id
  }

  private val level = new Array[Int](n)
  private val it    = new Array[Int](n)
  private val queue = new Array[Int](n)

  private def bfs(s: Int, t: Int): Boolean = {
    java.util.Arrays.fill(level, -1)
    var qh = 0; var qt = 0
    queue(qt) = s; qt += 1; level(s) = 0
    while (qh < qt) {
      val u = queue(qh); qh += 1
      var e = firstOf(u)
      while (e != -1) {
        val v = head(e)
        if (cap(e) > 0 && level(v) == -1) {
          level(v) = level(u) + 1
          queue(qt) = v; qt += 1
        }
        e = nxt(e)
      }
    }
    level(t) != -1
  }

  private def dfs(u: Int, t: Int, pushed: Long): Long = {
    if (u == t) return pushed
    var res = 0L
    var remaining = pushed
    while (it(u) != -1 && remaining > 0) {
      val e = it(u)
      val v = head(e)
      if (cap(e) > 0 && level(v) == level(u) + 1) {
        val d = dfs(v, t, math.min(remaining, cap(e)))
        if (d > 0) {
          cap(e) -= d
          cap(e ^ 1) += d
          res += d
          remaining -= d
        } else {
          it(u) = nxt(e) // dead end; advance
        }
      } else {
        it(u) = nxt(e)
      }
    }
    res
  }

  /** Compute the max flow from s to t. Call at most once. */
  def maxflow(s: Int, t: Int): Long = {
    var total = 0L
    while (bfs(s, t)) {
      System.arraycopy(firstOf, 0, it, 0, n)
      var f = dfs(s, t, Long.MaxValue)
      while (f > 0) {
        total += f
        f = dfs(s, t, Long.MaxValue)
      }
    }
    total
  }

  /** Vertices reachable from s in the residual graph — the minimal min-cut
    * source side. Valid only after ``maxflow``.
    */
  def minCutSourceSide(s: Int): Array[Boolean] = {
    val seen = new Array[Boolean](n)
    var qh = 0; var qt = 0
    queue(qt) = s; qt += 1; seen(s) = true
    while (qh < qt) {
      val u = queue(qh); qh += 1
      var e = firstOf(u)
      while (e != -1) {
        val v = head(e)
        if (cap(e) > 0 && !seen(v)) { seen(v) = true; queue(qt) = v; qt += 1 }
        e = nxt(e)
      }
    }
    seen
  }
}
