package ddsbench

/** A benchmark input: the raw edge draws handed to the program (self-loops
  * and duplicates included, so canonicalization is real work) and the
  * canonical edge set the answer checks run against.
  *
  * ``src``/``dst`` are the canonical edges sorted by (src, dst); vertex ids
  * are 1..``idRange``.
  */
final class Input(val idRange: Int,
                  val rawSrc: Array[Long], val rawDst: Array[Long],
                  val src: Array[Int], val dst: Array[Int],
                  val n: Long, val checksum: Long) {
  def m: Long = src.length.toLong
}

/** Seeded, host-independent input generation on the driver.
  *
  * The draws come from SplitMix64 and ``StrictMath``, so an input depends
  * only on its parameters and the seed: not on Spark parallelism, the JDK
  * or the host.
  */
object Inputs {

  /** SplitMix64 (Steele, Lea, Flood 2014), written out so the stream is
    * fixed by this file rather than by the JDK.
    */
  final class SplitMix64(seed: Long) {
    private var state = seed
    def nextLong(): Long = {
      state += 0x9e3779b97f4a7c15L
      mix(state)
    }
    /** Uniform in [0, 1) with 53 random bits. */
    def nextDouble(): Double = (nextLong() >>> 11) * (1.0 / (1L << 53))
  }

  def mix(z0: Long): Long = {
    var z = z0
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Power-law digraph with the shape of ``repro.SynthGraphs.powerLaw``
    * (skew 1): endpoint ranks drawn log-uniformly over [1, n], destination
    * ranks decorrelated from source ranks by an affine permutation. Makes
    * ``draws`` raw draws from ``graphSeed``; m is what is left after
    * canonicalization.
    *
    * ``seed`` then relabels the vertices by a random permutation of 1..n
    * and shuffles the draws. Inputs of one ``graphSeed`` are isomorphic, so
    * they share n, m and the densest subgraph's size and density.
    */
  def powerLaw(n: Int, draws: Int, graphSeed: Long, seed: Long): Input = {
    val rng = new SplitMix64(mix(graphSeed ^ 0x5eed0f9a3c1b7d25L))
    def rank(): Long =
      math.min(n.toLong, math.max(1L, StrictMath.pow(n.toDouble, rng.nextDouble()).toLong))
    val mul = coprimeNear(n.toLong, math.max(2L, n / 2L))
    val rawSrc = new Array[Long](draws)
    val rawDst = new Array[Long](draws)
    var i = 0
    while (i < draws) {
      rawSrc(i) = rank()
      rawDst(i) = ((rank() - 1) * mul + 17) % n + 1
      i += 1
    }
    val shuffle = new SplitMix64(mix(seed ^ 0x1ab3c5d7e9f20486L))
    def below(k: Int): Int = java.lang.Long.remainderUnsigned(shuffle.nextLong(), k.toLong).toInt
    val label = Array.tabulate(n + 1)(_.toLong)
    i = n
    while (i > 1) {
      val j = 1 + below(i)
      val t = label(i); label(i) = label(j); label(j) = t
      i -= 1
    }
    i = draws - 1
    while (i > 0) {
      val j = below(i + 1)
      val s = rawSrc(i); rawSrc(i) = rawSrc(j); rawSrc(j) = s
      val d = rawDst(i); rawDst(i) = rawDst(j); rawDst(j) = d
      i -= 1
    }
    i = 0
    while (i < draws) {
      rawSrc(i) = label(rawSrc(i).toInt)
      rawDst(i) = label(rawDst(i).toInt)
      i += 1
    }
    canonical(n, rawSrc, rawDst)
  }

  /** Canonicalize on the driver: drop self-loops, dedupe, sort; count the
    * vertices touched and fold the sorted edge list into a checksum.
    */
  private def canonical(n: Int, rawSrc: Array[Long], rawDst: Array[Long]): Input = {
    val base = n.toLong + 1
    val keys = rawSrc.indices.iterator
      .filter(i => rawSrc(i) != rawDst(i))
      .map(i => rawSrc(i) * base + rawDst(i))
      .toArray
    java.util.Arrays.sort(keys)
    var m = 0
    var i = 0
    while (i < keys.length) {
      if (m == 0 || keys(m - 1) != keys(i)) { keys(m) = keys(i); m += 1 }
      i += 1
    }
    val src = new Array[Int](m)
    val dst = new Array[Int](m)
    val seen = new Array[Boolean](n + 1)
    var checksum = 0x2545f4914f6cdd1dL
    i = 0
    while (i < m) {
      src(i) = (keys(i) / base).toInt
      dst(i) = (keys(i) % base).toInt
      seen(src(i)) = true
      seen(dst(i)) = true
      checksum = mix(checksum ^ keys(i))
      i += 1
    }
    new Input(n, rawSrc, rawDst, src, dst, seen.count(identity).toLong, checksum)
  }

  @annotation.tailrec
  private def gcd(a: Long, b: Long): Long = if (b == 0) a else gcd(b, a % b)

  private def coprimeNear(n: Long, start: Long): Long = {
    var v = start
    while (gcd(v, n) != 1) v += 1
    v
  }
}
