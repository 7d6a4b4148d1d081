package repro.core

import repro.{SparkSpec, TestGraphs}
import repro.exact.DDSExact
import repro.graph.{DigraphOps, LocalDigraph}

/** The engine's Spark→driver hand-off: answers equal the in-memory engine's
  * at every budget, and driver-local roots spare the Spark jobs they should.
  */
class SparkCoreEngineSpec extends SparkSpec {

  private def assertSame(got: Option[CoreHandle], want: Option[CoreHandle], at: String): Unit = {
    assert(got.isEmpty === want.isEmpty, at)
    for (g <- got; w <- want) {
      assert(g.candidate().s.toSeq === w.candidate().s.toSeq, s"$at S")
      assert(g.candidate().t.toSeq === w.candidate().t.toSeq, s"$at T")
      assert(g.m === w.m, s"$at m")
      assert(g.sub().edges.toSet === w.sub().edges.toSet, s"$at edges")
    }
  }

  /** Spark jobs started by ``f``, counted by job group. A sentinel job in a
    * later group is awaited first, so the status store has seen every job
    * of ``f`` (listener events arrive in order, asynchronously).
    */
  private def jobsIn(f: => Unit): Int = {
    val sc = spark.sparkContext
    val group = s"measured-${System.nanoTime()}"
    sc.setJobGroup(group, group)
    try f finally sc.clearJobGroup()
    val sentinel = s"sentinel-$group"
    sc.setJobGroup(sentinel, sentinel)
    try sc.parallelize(Seq(1), 1).count() finally sc.clearJobGroup()
    val deadline = System.nanoTime() + 30L * 1000000000L
    while (sc.statusTracker.getJobIdsForGroup(sentinel).isEmpty && System.nanoTime() < deadline)
      Thread.sleep(10)
    assert(sc.statusTracker.getJobIdsForGroup(sentinel).nonEmpty, "sentinel job not seen")
    sc.statusTracker.getJobIdsForGroup(group).length
  }

  // ~160 canonical edges; budget 80 hands off some cores and not others
  private val budgets = Seq(0L, 10L, 80L, 1000L)
  // descending, so a root exists before the queries it does not dominate
  private val coldQueries = Seq((5, 5), (4, 4), (6, 2), (3, 3), (2, 2), (1, 1), (1, 3), (3, 1), (6, 6))
  private val warmChain = Seq((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (4, 3), (4, 5), (5, 5), (6, 6))

  for (seed <- 1 to 4) {
    test(s"core(x,y,warm) equals LocalCoreEngine at any budget (seed=$seed)") {
      val pairs = TestGraphs.skewedPairs(50, 260, 600 + seed)
      val local = new LocalCoreEngine(LocalDigraph.fromPairs(pairs))
      val df = TestGraphs.df(spark, pairs)
      for (budget <- budgets) {
        val cold = new SparkCoreEngine(df, budget)
        for ((x, y) <- coldQueries)
          assertSame(cold.core(x, y), local.core(x, y), s"budget $budget cold [$x,$y]")
        cold.release()

        val warmed = new SparkCoreEngine(df, budget)
        var warm: Option[CoreHandle] = None
        for ((x, y) <- warmChain) {
          val h = warmed.core(x, y, warm)
          assertSame(h, local.core(x, y), s"budget $budget warm [$x,$y]")
          if (h.nonEmpty) warm = h
        }
        warmed.release()
      }
    }
  }

  test("m within budget: fullSub, maxXY and CoreExact run one collect of the canonical edges") {
    val pairs = TestGraphs.skewedPairs(50, 250, seed = 21)
    val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs))
    assert(engine.m <= 400000L)
    val collect = jobsIn(engine.base.select("src", "dst").collect())
    val solve = jobsIn {
      engine.fullSub()
      MaxCore.maxXY(engine)
      DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.CoreExact))
    }
    assert(collect >= 1)
    assert(solve === collect)
    engine.release()
  }

  test("budget below m: queries a root dominates run no Spark job") {
    val pairs = TestGraphs.skewedPairs(50, 260, seed = 22)
    val local = new LocalCoreEngine(LocalDigraph.fromPairs(pairs))
    val df = TestGraphs.df(spark, pairs)
    val m = new SparkCoreEngine(df).m
    val engine = new SparkCoreEngine(df, m - 1)
    val c11 = engine.core(1, 1) // a Spark fixpoint: all m edges
    val c22 = engine.core(2, 2, c11) // shrinks below m: handed to the driver
    assert(c11.exists(_.m == m) && c22.nonEmpty)
    val queries = for (x <- 2 to 5; y <- 2 to 5) yield (x, y)
    var answers = Seq.empty[((Int, Int), Option[CoreHandle])]
    val jobs = jobsIn {
      answers = queries.flatMap { case (x, y) =>
        Seq((x, y) -> engine.core(x, y), (x, y) -> engine.core(x, y, c11), (x, y) -> engine.core(x, y, c22))
      }
    }
    assert(jobs === 0)
    for (((x, y), h) <- answers) assertSame(h, local.core(x, y), s"[$x,$y]")
    engine.release()
  }

  test("n and m equal the driver-side counts, including degenerate inputs") {
    for ((name, pairs) <- TestGraphs.statsInputs; budget <- Seq(0L, 400000L)) {
      val g = LocalDigraph.fromPairs(pairs)
      val engine = new SparkCoreEngine(TestGraphs.df(spark, pairs), budget)
      assert(engine.stats === TestGraphs.localStats(g), s"$name budget $budget")
      assert((engine.n, engine.m) === ((g.n.toLong, g.m.toLong)), s"$name budget $budget")
      assert(engine.core(1, 1).isEmpty === (g.m == 0), s"$name budget $budget [1,1]")
      engine.release()
    }
  }

  test("budget below m: the [1,1]-core comes from setup with no Spark job") {
    for (seed <- 1 to 4) {
      val pairs = TestGraphs.skewedPairs(50, 260, 600 + seed)
      val local = new LocalCoreEngine(LocalDigraph.fromPairs(pairs))
      val df = TestGraphs.df(spark, pairs)
      val m = new SparkCoreEngine(df).m
      val engine = new SparkCoreEngine(df, m - 1)
      assert(engine.m === m)
      var c11: Option[CoreHandle] = None
      assert(jobsIn { c11 = engine.core(1, 1) } === 0, s"seed $seed")
      assertSame(c11, local.core(1, 1), s"seed $seed [1,1]")
      engine.release()
    }
  }

  test("setup runs no more Spark jobs than caching the edges and one degree round") {
    val df = TestGraphs.df(spark, TestGraphs.skewedPairs(50, 260, seed = 25))
    val oneRound = jobsIn {
      val base = DigraphOps.canonicalize(df).cache()
      XYCore.degreeRound(base, null, null)
      base.unpersist(blocking = true)
    }
    val engine = new SparkCoreEngine(df)
    val setup = jobsIn(engine.m)
    assert(oneRound >= 1)
    assert(setup <= oneRound)
    engine.release()
  }

  test("a handle from another engine warm-starts nothing: the answer is the cold one") {
    val pairsB = TestGraphs.skewedPairs(50, 260, seed = 23)
    // A's vertices are disjoint from B's, so a warm start from A's cores empties B's
    val pairsA = TestGraphs.skewedPairs(50, 260, seed = 24).map { case (u, v) => (u + 1000, v + 1000) }
    val local = new LocalCoreEngine(LocalDigraph.fromPairs(pairsB))
    val queries = Seq((1, 1), (2, 2), (3, 2), (3, 3))
    for (budget <- Seq(0L, 1000L)) {
      val a = new SparkCoreEngine(TestGraphs.df(spark, pairsA), budget)
      val b = new SparkCoreEngine(TestGraphs.df(spark, pairsB), budget)
      val hA = a.core(1, 1)
      assert(hA.nonEmpty)
      for ((x, y) <- queries) assertSame(b.core(x, y, hA), local.core(x, y), s"budget $budget [$x,$y]")
      a.release(); b.release()
    }
    val localA = new LocalCoreEngine(LocalDigraph.fromPairs(pairsA))
    val hA = localA.core(1, 1)
    for ((x, y) <- queries) assertSame(local.core(x, y, hA), local.core(x, y), s"local [$x,$y]")
  }
}
