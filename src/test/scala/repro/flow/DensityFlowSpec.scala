package repro.flow

import org.scalatest.funsuite.AnyFunSuite
import repro.{ExactRef, TestGraphs}
import repro.core.{Candidate, CoreSub}
import repro.graph.LocalDigraph
import repro.ref.BruteForce

/** The integer decision network at ratio p/q and threshold num/den:
  * decide-and-extract vs exhaustive enumeration, with no tolerance.
  */
class DensityFlowSpec extends AnyFunSuite {

  /** The ratios a of the double-valued cases as p/q. */
  private val asFraction = Map(0.5 -> (1L, 2L), 1.0 -> (1L, 1L), 1.5 -> (3L, 2L), 2.0 -> (2L, 1L))

  /** Whether c beats the threshold num/den at ratio p/q, exactly. */
  private def beats(c: Candidate, p: Long, q: Long, num: Long, den: Long): Boolean =
    ExactRef.compare(ExactRef.value(c, p, q), (num, den)) > 0

  test("single edge: decision flips exactly at the surrogate value") {
    val sub = CoreSub.whole(LocalDigraph.fromPairs(Seq((1L, 2L))))
    // at a = 1 the edge has value E/(|S| + |T|) = 1/2 (surrogate 1)
    assert(DensityFlow.bestAbove(sub, 1, 1, 99, 200).isDefined)
    assert(DensityFlow.bestAbove(sub, 1, 1, 1, 2).isEmpty)
    assert(DensityFlow.bestAbove(sub, 1, 1, 101, 200).isEmpty)
  }

  test("extraction at g=0 returns a pair with positive surrogate") {
    val sub = CoreSub.whole(TestGraphs.randomLocal(8, 14, seed = 3))
    val c = DensityFlow.bestAbove(sub, 1, 1, 0, 1)
    assert(c.isDefined)
    assert(c.get.m > 0 && c.get.surrogate(1.0) > 0.0)
  }

  test("networkNodes counts 2 + |S| + |T|") {
    val sub = CoreSub.whole(TestGraphs.randomLocal(8, 14, seed = 4))
    assert(DensityFlow.networkNodes(sub) === 2 + sub.sSize + sub.tSize)
  }

  for (seed <- 1 to 12; a <- Seq(0.5, 1.0, 2.0)) {
    test(s"decision matches brute-force surrogate max (seed=$seed a=$a)") {
      val g = TestGraphs.randomLocal(7, 4 + seed, seed)
      if (g.m > 0) {
        val (p, q) = asFraction(a)
        val sub = CoreSub.whole(g)
        val (e, d) = ExactRef.max(g, p, q)
        // the double-valued reference agrees: surrogate = 2·E·√(pq)/D
        assert(math.abs(2.0 * e * math.sqrt((p * q).toDouble) / d - BruteForce.surrogateMax(g, a)) < 1e-9)
        // strictly below opt: must find the optimum
        val below = DensityFlow.bestAbove(sub, p, q, 999 * e, 1000 * d)
        assert(below.isDefined, s"expected a pair above 0.999·$e/$d")
        assert(beats(below.get, p, q, 999 * e, 1000 * d))
        assert(ExactRef.compare(ExactRef.value(below.get, p, q), (e, d)) === 0)
        // at/above opt: must find nothing
        assert(DensityFlow.bestAbove(sub, p, q, e, d).isEmpty, s"opt=$e/$d")
        assert(DensityFlow.bestAbove(sub, p, q, 1001 * e, 1000 * d).isEmpty)
      }
    }
  }

  for (seed <- 1 to 8) {
    test(s"extracted pair is the exact surrogate argmax after Dinkelbach (seed=$seed)") {
      val g = TestGraphs.randomLocal(7, 6 + seed, 50 + seed)
      if (g.m > 0) {
        val sub = CoreSub.whole(g)
        val (p, q) = asFraction(1.0 + (seed % 3) * 0.5)
        // Dinkelbach iteration from 0 must converge to the brute-force optimum.
        var threshold = (0L, 1L)
        var cand = Option.empty[Candidate]
        var continue = true
        var iters = 0
        while (continue) {
          iters += 1
          assert(iters < 100)
          DensityFlow.bestAbove(sub, p, q, threshold._1, threshold._2) match {
            case Some(c) =>
              assert(beats(c, p, q, threshold._1, threshold._2))
              cand = Some(c); threshold = ExactRef.value(c, p, q)
            case None => continue = false
          }
        }
        val opt = ExactRef.max(g, p, q)
        assert(cand.isDefined)
        assert(ExactRef.compare(ExactRef.value(cand.get, p, q), opt) === 0,
          s"got ${ExactRef.value(cand.get, p, q)} expected $opt")
        assert(cand.get.m === TestGraphs.edgesBetweenIds(g, cand.get.s.toSet, cand.get.t.toSet))
      }
    }
  }

  test("empty subgraph: no answer") {
    assert(DensityFlow.bestAbove(CoreSub.empty, 1, 1, 0, 1).isEmpty)
  }

  test("full bipartite block: argmax at matching ratio is the whole block") {
    // 3x2 complete bipartite at a = 3/2: value 6/(2·3 + 3·2) = 1/2, surrogate √6
    val pairs = for (i <- 0 until 3; j <- 0 until 2) yield (i.toLong, (10 + j).toLong)
    val sub = CoreSub.whole(LocalDigraph.fromPairs(pairs))
    val c = DensityFlow.bestAbove(sub, 3, 2, 49, 100)
    assert(c.isDefined)
    assert(c.get.sSize === 3 && c.get.tSize === 2 && c.get.m === 6)
    assert(DensityFlow.bestAbove(sub, 3, 2, 1, 2).isEmpty)
  }

  for (seed <- 1 to 6; a <- Seq(0.5, 1.0, 1.5)) {
    test(s"ties need no slack: the optimum's value is None, the next smaller value is Some (seed=$seed a=$a)") {
      val g = TestGraphs.randomLocal(6, 8 + 2 * seed, 700 + seed)
      if (g.m > 0) {
        val (p, q) = asFraction(a)
        val sub = CoreSub.whole(g)
        val all = ExactRef.values(g, p, q)
        val opt = ExactRef.max(g, p, q)
        // the largest value any pair reaches below the optimum
        val next = all.filter(ExactRef.compare(_, opt) < 0)
          .reduce((x, y) => if (ExactRef.compare(x, y) >= 0) x else y)
        assert(DensityFlow.bestAbove(sub, p, q, opt._1, opt._2).isEmpty)
        val c = DensityFlow.bestAbove(sub, p, q, next._1, next._2)
        assert(c.isDefined)
        assert(ExactRef.compare(ExactRef.value(c.get, p, q), opt) === 0)
        // 2^-40 of a unit below the optimum, far inside a double's rounding
        val k = 1L << 40
        assert(DensityFlow.bestAbove(sub, p, q, opt._1 * k - 1, opt._2 * k).isDefined)
      }
    }
  }

  test("capacity overflow fails fast with the ratio, D and m") {
    val sub = CoreSub.whole(TestGraphs.randomLocal(6, 12, seed = 9))
    val d = Long.MaxValue / 2
    val err = intercept[CapacityOverflow](DensityFlow.bestAbove(sub, 2, 3, 1, d))
    assert((err.p, err.q, err.d, err.m) === ((2L, 3L, d, sub.m.toLong)))
    assert(err.getMessage.contains("2/3") && err.getMessage.contains(s"D=$d") && err.getMessage.contains(s"m=${sub.m}"))
  }
}
