package repro.core

import repro.{Oracle, SparkSpec, TestGraphs}
import repro.graph.{DigraphOps, LocalDigraph}

/** The Spark DataFrame peeling vs the reference peeler, plus DuckDB checks. */
class XYCoreSparkSpec extends SparkSpec {
  import spark.implicits._

  private def peelBoth(pairs: Seq[(Long, Long)], x: Int, y: Int): (SparkCore, CoreSub) = {
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val sparkCore = XYCore.peel(base, x, y)
    val localCore = LocalXYCore.peel(LocalDigraph.fromPairs(pairs), x, y)
    (sparkCore, localCore)
  }

  test("single edge [1,1]") {
    val (s, l) = peelBoth(Seq((1L, 2L)), 1, 1)
    assert(s.s.toSeq === l.s.toSeq)
    assert(s.t.toSeq === l.t.toSeq)
    assert(s.m === l.m.toLong)
  }

  test("single edge [2,1] is empty") {
    val (s, _) = peelBoth(Seq((1L, 2L)), 2, 1)
    assert(s.isEmpty)
  }

  test("empty input") {
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, Seq.empty))
    assert(XYCore.peel(base, 1, 1).isEmpty)
  }

  for (seed <- 1 to 10) {
    test(s"random graph: Spark peel equals reference for several (x,y) (seed=$seed)") {
      val pairs = TestGraphs.randomPairs(12, 10 + 4 * seed, seed)
      val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
      val g = LocalDigraph.fromPairs(pairs)
      for ((x, y) <- Seq((1, 1), (2, 1), (1, 2), (2, 2), (3, 2))) {
        val sc = XYCore.peel(base, x, y)
        val lc = LocalXYCore.peel(g, x, y)
        assert(sc.s.toSeq === lc.s.toSeq, s"[$x,$y] S")
        assert(sc.t.toSeq === lc.t.toSeq, s"[$x,$y] T")
        assert(sc.m === lc.m.toLong, s"[$x,$y] m")
      }
      base.unpersist()
    }
  }

  for (seed <- 1 to 4) {
    test(s"skewed graph: Spark peel equals reference (seed=$seed)") {
      val pairs = TestGraphs.skewedPairs(60, 300, seed)
      val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
      val g = LocalDigraph.fromPairs(pairs)
      for ((x, y) <- Seq((1, 1), (2, 2), (3, 1), (4, 2))) {
        val sc = XYCore.peel(base, x, y)
        val lc = LocalXYCore.peel(g, x, y)
        assert(sc.s.toSeq === lc.s.toSeq, s"[$x,$y]")
        assert(sc.t.toSeq === lc.t.toSeq, s"[$x,$y]")
        assert(sc.m === lc.m.toLong, s"[$x,$y]")
      }
      base.unpersist()
    }
  }

  test("warm start from a superset core gives the same result") {
    val pairs = TestGraphs.skewedPairs(40, 200, seed = 9)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val c11 = XYCore.peel(base, 1, 1)
    val cold = XYCore.peel(base, 2, 2)
    val warm = XYCore.peel(base, 2, 2, Some(c11))
    assert(warm.s.toSeq === cold.s.toSeq)
    assert(warm.t.toSeq === cold.t.toSeq)
    assert(warm.m === cold.m)
    base.unpersist()
  }

  test("warm start from an empty core short-circuits to empty") {
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, Seq((1L, 2L)))).cache()
    val emptyCore = SparkCore(2, 1, Array.empty, Array.empty, 0L)
    assert(XYCore.peel(base, 3, 2, Some(emptyCore)).isEmpty)
    base.unpersist()
  }

  test("PeelDiverged names the core, the rounds and the alive sides") {
    val e = new PeelDiverged(3, 2, 9999, 40, 17)
    assert((e.x, e.y, e.iterations, e.sSize, e.tSize) === ((3, 2, 9999, 40, 17)))
    assert(e.getMessage === "peeling [3,2] did not converge after 9999 rounds; alive |S|=40 |T|=17")
    assert(e.isInstanceOf[RuntimeException])
  }

  test("invalid warm start is rejected") {
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, Seq((1L, 2L))))
    val c = SparkCore(2, 2, Array(1L), Array(2L), 1L)
    intercept[IllegalArgumentException](XYCore.peel(base, 1, 1, Some(c)))
  }

  test("core constraint verified via DuckDB: every S vertex has >= x out-edges into T") {
    val pairs = TestGraphs.skewedPairs(30, 150, seed = 11)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val x = 2; val y = 2
    val core = XYCore.peel(base, x, y)
    if (core.nonEmpty) {
      val coreEdges = XYCore.coreEdges(base, core)
      val sDf = core.s.toSeq.toDF("id")
      val violators = TestGraphs.outDegrees(coreEdges)
        .where($"deg" < x)
        .join(sDf, "id")
      Oracle.assertEquivalent(
        violators.select($"id"),
        // DuckDB recomputes the same violation query over the core edge set
        s"SELECT src AS id FROM core GROUP BY src HAVING COUNT(*) < $x",
        "core" -> coreEdges)
      assert(violators.count() === 0)
    }
    base.unpersist()
  }

  test("coreEdges of the [1,1]-core matches DuckDB pair filter") {
    val pairs = TestGraphs.randomPairs(15, 50, seed = 12)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val core = XYCore.peel(base, 1, 1)
    val sDf = core.s.toSeq.toDF("id")
    val tDf = core.t.toSeq.toDF("id")
    Oracle.assertEquivalent(
      XYCore.coreEdges(base, core).select("src", "dst"),
      "SELECT src, dst FROM edges WHERE src IN (SELECT id FROM s) AND dst IN (SELECT id FROM t)",
      "edges" -> base, "s" -> sDf, "t" -> tDf)
    base.unpersist()
  }

  test("collectSub materializes exactly the core pair-subgraph") {
    val pairs = TestGraphs.randomPairs(15, 60, seed = 13)
    val base = DigraphOps.canonicalize(TestGraphs.df(spark, pairs)).cache()
    val core = XYCore.peel(base, 2, 1)
    val sub = XYCore.collectSub(base, core)
    val lc = LocalXYCore.peel(LocalDigraph.fromPairs(pairs), 2, 1)
    assert(sub.s.toSeq === lc.s.toSeq)
    assert(sub.t.toSeq === lc.t.toSeq)
    assert(sub.edges.toSet === lc.edges.toSet)
    base.unpersist()
  }
}
