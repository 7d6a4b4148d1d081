package ddsbench

/** An answer (S,T) with |E(S,T)| recounted from the input. */
final case class Answer(sSize: Long, tSize: Long, m: Long) {
  def rho: Double = if (sSize == 0 || tSize == 0) 0.0 else m / math.sqrt(sSize.toDouble * tSize)
}

/** Answer checks against the benchmark's own copy of the input edges. */
object Checks {

  private def mask(in: Input, ids: Array[Long]): Array[Boolean] = {
    val a = new Array[Boolean](in.idRange + 1)
    ids.foreach(id => if (id >= 1 && id <= in.idRange) a(id.toInt) = true)
    a
  }

  /** Recounts |E(S,T)| from the input. */
  def recount(in: Input, s: Array[Long], t: Array[Long]): Answer = {
    val inS = mask(in, s)
    val inT = mask(in, t)
    var e = 0L
    var i = 0
    while (i < in.src.length) {
      if (inS(in.src(i)) && inT(in.dst(i))) e += 1
      i += 1
    }
    Answer(s.distinct.length.toLong, t.distinct.length.toLong, e)
  }

  /** Whether every u in S has at least x out-neighbours in T and every v in
    * T at least y in-neighbours in S, counted on the input.
    */
  def isXYPair(in: Input, s: Array[Long], t: Array[Long], x: Int, y: Int): Boolean = {
    val inS = mask(in, s)
    val inT = mask(in, t)
    val out = new Array[Int](in.idRange + 1)
    val inDeg = new Array[Int](in.idRange + 1)
    var i = 0
    while (i < in.src.length) {
      if (inS(in.src(i)) && inT(in.dst(i))) { out(in.src(i)) += 1; inDeg(in.dst(i)) += 1 }
      i += 1
    }
    s.nonEmpty && t.nonEmpty && s.forall(u => out(u.toInt) >= x) && t.forall(v => inDeg(v.toInt) >= y)
  }

  /** Sign of ρ(a) − ρ(b), exactly: m_a²·|S_b||T_b| against m_b²·|S_a||T_a|. */
  def compareRho(a: Answer, b: Answer): Int =
    (BigInt(a.m).pow(2) * b.sSize * b.tSize).compare(BigInt(b.m).pow(2) * a.sSize * a.tSize)

  /** ρ ≥ √(x·y), exactly: m² ≥ x·y·|S||T|. */
  def meetsCoreBound(a: Answer, x: Int, y: Int): Boolean =
    BigInt(a.m).pow(2) >= BigInt(x) * y * a.sSize * a.tSize
}
