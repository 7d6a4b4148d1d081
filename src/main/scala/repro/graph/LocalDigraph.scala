package repro.graph

import org.apache.spark.sql.DataFrame

/** Driver-side compressed digraph over remapped vertex indices 0..n-1.
  *
  * Used for (a) reference implementations that cross-validate the Spark
  * path, and (b) the flow networks of the exact algorithm, which are built
  * on core-pruned subgraphs small enough to solve on the driver.
  *
  * ``ids(i)`` maps the internal index ``i`` back to the original vertex id.
  */
final class LocalDigraph(val n: Int,
                         val src: Array[Int],
                         val dst: Array[Int],
                         val ids: Array[Long]) {
  require(ids.length == n, s"ids length ${ids.length} != n $n")
  val m: Int = src.length

  /** Out-adjacency as CSR: neighbors of u are outAdj(outOff(u) until outOff(u+1)). */
  lazy val (outOff, outAdj): (Array[Int], Array[Int]) = buildCsr(src, dst)
  lazy val (inOff, inAdj): (Array[Int], Array[Int])   = buildCsr(dst, src)

  private def buildCsr(from: Array[Int], to: Array[Int]): (Array[Int], Array[Int]) = {
    val off = new Array[Int](n + 1)
    var i = 0
    while (i < m) { off(from(i) + 1) += 1; i += 1 }
    i = 0
    while (i < n) { off(i + 1) += off(i); i += 1 }
    val adj = new Array[Int](m)
    val cur = java.util.Arrays.copyOf(off, n)
    i = 0
    while (i < m) { adj(cur(from(i))) = to(i); cur(from(i)) += 1; i += 1 }
    (off, adj)
  }

  def outDeg(u: Int): Int = outOff(u + 1) - outOff(u)
  def inDeg(v: Int): Int  = inOff(v + 1) - inOff(v)
}

object LocalDigraph {

  /** Build from raw id pairs; self-loops dropped, duplicates deduped. Ids
    * are remapped by sort + binary search, so ``ids`` is ascending.
    */
  def fromPairs(pairs: Seq[(Long, Long)]): LocalDigraph = {
    val clean = pairs.filter(p => p._1 != p._2).distinct.toArray
    val m = clean.length
    val all = new Array[Long](2 * m)
    var i = 0
    while (i < m) { val p = clean(i); all(2 * i) = p._1; all(2 * i + 1) = p._2; i += 1 }
    java.util.Arrays.sort(all)
    // unique
    var n = 0
    i = 0
    while (i < 2 * m) {
      if (n == 0 || all(n - 1) != all(i)) { all(n) = all(i); n += 1 }
      i += 1
    }
    val ids = java.util.Arrays.copyOf(all, n)
    val src = new Array[Int](m)
    val dst = new Array[Int](m)
    i = 0
    while (i < m) {
      val p = clean(i)
      src(i) = java.util.Arrays.binarySearch(ids, p._1)
      dst(i) = java.util.Arrays.binarySearch(ids, p._2)
      i += 1
    }
    new LocalDigraph(n, src, dst, ids)
  }

  /** Collect an edge DataFrame (columns src, dst) to the driver. */
  def fromEdges(edges: DataFrame): LocalDigraph =
    fromPairs(edges.select("src", "dst").collect().map(r => (r.getLong(0), r.getLong(1))).toSeq)
}
