package ddsbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.approx.CoreApprox
import repro.core.{CoreEngine, SparkCoreEngine}
import repro.exact.DDSExact

/** What one solve call returned, before checking. */
final case class Solved(s: Array[Long], t: Array[Long], claimedM: Long, x: Int, y: Int,
                        ratioProbes: Int, flows: Int, dnf: Boolean)

/** One closed-loop repetition: a fresh engine, its setup, one solve. */
final case class Rep(ctorNs: Long, statsNs: Long, solveNs: Long,
                     retainedBytes: Long, peakAfterGcBytes: Long, allocatedBytes: Long,
                     gcCount: Long, gcMs: Long, solved: Option[Solved],
                     answer: Answer, error: Option[String],
                     trace: Option[(RepTrace, Map[String, SparkWork])]) {
  def setupNs: Long = ctorNs + statsNs
}

/** The benchmark driver: one workload, one seed, one measuring window.
  *
  * Usage: ddsbench.Main --workload NAME --seed N --seconds S --trace 0|1
  *
  * Prints a human-readable report, then one JSON line with ``correct``,
  * ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics untraced,
  * per-layer metrics with ``--trace 1``).
  */
object Main {

  val cores: Int = math.min(4, Runtime.getRuntime.availableProcessors)
  val shufflePartitions = 64
  val warmUpSeconds = 15

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = opts.getOrElse(k, usage(s"missing --$k"))
    val wl = Workloads.byName(need("workload")).getOrElse(usage(s"unknown workload ${need("workload")}"))
    val seed = need("seed").toLong
    val seconds = need("seconds").toInt
    val traced = need("trace") match {
      case "0" => false
      case "1" => true
      case o   => usage(s"--trace must be 0 or 1, got $o")
    }

    val input = wl.input(seed)
    val pin = Workloads.pins.get(wl.name)
    val checksum = Workloads.checksums.get((wl.name, seed))
    println(s"input ${wl.name} seed=$seed n=${input.n} m=${input.m} checksum=${input.checksum}")
    if (pin.exists(p => p.n != input.n || p.m != input.m) || checksum.exists(_ != input.checksum)) {
      System.err.println(s"input for ${wl.name} seed $seed differs from its pin: expected " +
        s"n=${pin.map(_.n)} m=${pin.map(_.m)} checksum=$checksum")
      sys.exit(3)
    }

    // The session settings of jobs/TableJobs.scala, plus one: every shuffle
    // map task writes one sorted file instead of one file per partition.
    // Per-partition files made setup 2.4x slower and noisy on a disk with
    // slow file creation, while the program's jobs, tasks and shuffle bytes
    // are the same either way.
    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName("ddsbench")
      .config("spark.sql.shuffle.partitions", shufflePartitions.toLong)
      .config("spark.sql.autoBroadcastJoinThreshold", -1L)
      .config("spark.shuffle.sort.bypassMergeThreshold", 0L)
      .config("spark.ui.enabled", false)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    try {
      val bench = new Bench(spark, wl, input, pin)
      printProvenance(spark, wl, seed, bench.localCutoff)
      val result = bench.run(seconds, traced, bench.warmUp(warmUpSeconds))
      result.report.foreach(println)
      println(result.json)
    } finally spark.stop()
  }

  private def usage(msg: String): Nothing = {
    System.err.println(s"$msg\nusage: ddsbench.Main --workload " +
      s"{${Workloads.all.map(_.name).mkString("|")}} --seed N --seconds S --trace 0|1")
    sys.exit(2)
  }

  private def printProvenance(spark: SparkSession, wl: Workload, seed: Long,
                              localCutoff: Option[Long]): Unit = {
    val conf = spark.conf
    val xmx = Runtime.getRuntime.maxMemory / (1 << 20)
    println("provenance " + Json.obj(Seq(
      "git_sha" -> Json.str(sys.props.getOrElse("ddsbench.sha", "unknown")),
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "spark_master" -> Json.str(spark.sparkContext.master),
      "spark_version" -> Json.str(spark.version),
      "shuffle_partitions" -> conf.get("spark.sql.shuffle.partitions"),
      "auto_broadcast_threshold" -> conf.get("spark.sql.autoBroadcastJoinThreshold"),
      "shuffle_bypass_merge_threshold" -> conf.get("spark.shuffle.sort.bypassMergeThreshold"),
      "driver_max_heap_mb" -> xmx.toString,
      "jvm" -> Json.str(s"${sys.props("java.vm.name")} ${sys.props("java.version")}"),
      "workload" -> Json.str(wl.name),
      "seed" -> seed.toString,
      "local_cutoff" -> localCutoff.fold("null")(_.toString))))
  }
}

final case class BenchResult(report: Seq[String], json: String)

final class Bench(spark: SparkSession, wl: Workload, input: Input, pin: Option[Pin]) {
  private val sc = spark.sparkContext

  /** The input as handed to the program: the raw draws as a DataFrame. */
  private val edges: DataFrame = {
    import spark.implicits._
    sc.parallelize(input.rawSrc.indices.map(i => (input.rawSrc(i), input.rawDst(i))), Main.cores)
      .toDF("src", "dst")
  }

  val localCutoff: Option[Long] = wl.cutoffShare.map(share => (share * input.m).toLong)

  private def newEngine(): SparkCoreEngine = localCutoff match {
    case Some(c) => new SparkCoreEngine(edges, c)
    case None    => new SparkCoreEngine(edges)
  }

  private def solve(engine: CoreEngine): Solved =
    if (wl.exact) {
      val r = DDSExact.run(engine, DDSExact.Config(DDSExact.Mode.CoreExact))
      val (x, y) = r.maxXY.getOrElse((0, 0))
      Solved(r.best.s, r.best.t, r.best.m, x, y, r.probes, r.flows, r.dnf)
    } else {
      val d = CoreApprox.run(engine)
      Solved(d.candidate.s, d.candidate.t, d.candidate.m, d.x, d.y, 0, 0, dnf = false)
    }

  /** CoreExact's reference optimum: pinned, or from a DC run outside timing. */
  private lazy val optimum: Answer = pin.flatMap(_.optimum).getOrElse {
    val r = DDSExact.run(newEngine(), DDSExact.Config(DDSExact.Mode.DC))
    spark.catalog.clearCache()
    require(!r.dnf, "DC reference did not finish")
    Checks.recount(input, r.best.s, r.best.t)
  }

  private def check(s: Solved, a: Answer, engineM: Long): Option[String] = {
    def fail(msg: String) = Some(msg)
    if (s.dnf) fail("did not finish")
    else if (engineM != input.m) fail(s"engine m=$engineM, input m=${input.m}")
    else if (a.m != s.claimedM) fail(s"claimed |E(S,T)|=${s.claimedM}, recounted ${a.m}")
    else if (wl.exact) {
      if (Checks.compareRho(a, optimum) != 0)
        fail(s"ρ=${a.rho} (m=${a.m} |S|=${a.sSize} |T|=${a.tSize}) differs from optimum ${optimum.rho}")
      else None
    } else {
      if (!Checks.isXYPair(input, s.s, s.t, s.x, s.y)) fail(s"answer is not an [${s.x},${s.y}]-core")
      else if (!Checks.meetsCoreBound(a, s.x, s.y)) fail(s"ρ=${a.rho} < √(${s.x}·${s.y})")
      else if (pin.flatMap(_.xy).exists(_ != s.x.toLong * s.y))
        fail(s"x*·y*=${s.x.toLong * s.y}, pinned ${pin.flatMap(_.xy).get}")
      else None
    }
  }

  private def rep(traced: Boolean, listener: SpanListener): Rep = {
    val t = if (traced) new RepTrace(sc) else null
    def within[A](span: String)(f: => A): A = if (traced) t.span(span)(f) else f
    val live0 = Jvm.startWindow()
    if (traced) { sc.addSparkListener(listener); listener.drain(sc) }
    val gc0 = Jvm.gcCount
    val gcMs0 = Jvm.gcMillis
    val alloc0 = Jvm.allocatedBytes
    var ctorNs, statsNs, solveNs = 0L
    var engineM = -1L
    var solved: Option[Solved] = None
    var error: Option[String] = None
    try {
      val t0 = System.nanoTime()
      val engine = within(Span.Setup)(newEngine())
      val t1 = System.nanoTime()
      engineM = within(Span.Setup) { engine.n; engine.m }
      val t2 = System.nanoTime()
      solved = Some(within(Span.Solve)(solve(if (traced) new TracedEngine(engine, t) else engine)))
      val t3 = System.nanoTime()
      ctorNs = t1 - t0; statsNs = t2 - t1; solveNs = t3 - t2
    } catch {
      case e: Exception => error = Some(s"${e.getClass.getSimpleName}: ${e.getMessage}")
    }
    // the engine and the answer are still reachable here
    val retained = Jvm.liveBytes() - live0
    val peakAfterGc = Jvm.peakAfterGcBytes - live0
    val allocated = Jvm.allocatedBytes - alloc0
    val gcCount = Jvm.gcCount - gc0
    val gcMs = Jvm.gcMillis - gcMs0
    val work = if (traced) { val w = listener.drain(sc); sc.removeSparkListener(listener); w } else Map.empty[String, SparkWork]
    spark.catalog.clearCache()
    val answer = solved.fold(Answer(0, 0, 0))(s => Checks.recount(input, s.s, s.t))
    if (error.isEmpty) error = check(solved.get, answer, engineM)
    System.err.println(f"[ddsbench] rep traced=$traced setup=${(ctorNs + statsNs) / 1e9}%.3f s " +
      f"solve=${solveNs / 1e9}%.3f s retained=${retained / 1048576.0}%.1f MB " +
      f"peak-after-gc=${peakAfterGc / 1048576.0}%.1f MB gc=$gcCount/$gcMs ms error=${error.getOrElse("-")}")
    Rep(ctorNs, statsNs, solveNs, retained, peakAfterGc, allocated, gcCount, gcMs, solved, answer, error,
        if (traced) Some((t, work)) else None)
  }

  /** Untimed repetitions for ``seconds``, at least two: they load classes,
    * compile hot paths and fill Spark's code-generation cache (the first
    * measured repetition after only one ran up to 50% slow). Their answers
    * are checked and count as attempted.
    */
  def warmUp(seconds: Int): Seq[Rep] = {
    if (wl.exact) optimum
    val end = System.nanoTime() + seconds * 1000000000L
    val reps = scala.collection.mutable.ArrayBuffer.empty[Rep]
    while (reps.length < 2 || System.nanoTime() < end) reps += rep(traced = false, new SpanListener)
    reps.toSeq
  }

  def run(seconds: Int, traced: Boolean, warm: Seq[Rep]): BenchResult = {
    val listener = new SpanListener

    val minReps = if (traced) 4 else 3
    val deadline = System.nanoTime() + seconds * 1000000000L
    // No repetition starts later than this after JVM start, so that a slow
    // program still ends the run in time.
    val lastStartMs = ManagementFactory.getRuntimeMXBean.getStartTime + 140000L
    val reps = scala.collection.mutable.ArrayBuffer.empty[Rep]
    while ((System.nanoTime() < deadline || reps.length < minReps) &&
           System.currentTimeMillis() < lastStartMs)
      reps += rep(traced && reps.length % 2 == 1, listener)

    val untraced = reps.filter(_.trace.isEmpty).toSeq
    val withTrace = reps.filter(_.trace.nonEmpty).toSeq
    // A traced repetition must reproduce the untraced answer and counts.
    def sig(r: Rep) = r.solved.map(s => (r.answer, s.x, s.y, s.ratioProbes, s.flows))
    def probes(r: Rep) = r.trace.map(_._1.probeNanos.length)
    val reference = sig(reps.head)
    val mismatched = reps.count(r => r.error.isEmpty && sig(r) != reference) +
      withTrace.map(probes).distinct.length.max(1) - 1
    val attempted = warm.length + reps.length
    val failed = math.min(attempted, (warm ++ reps).count(_.error.nonEmpty) + mismatched)

    val e2e = Report.endToEnd(untraced, input.m)
    val layers = if (traced) Report.perLayer(withTrace, untraced, wl.exact) else Seq.empty
    val errors = (warm ++ reps).flatMap(_.error).distinct
    val lines =
      Seq(s"${wl.name}: closed loop, 1 client, fresh engine per repetition; " +
          s"${untraced.length} untraced + ${withTrace.length} traced repetitions after " +
          s"${warm.length} to warm up") ++
      Report.table("end-to-end (untraced, median over repetitions)", e2e) ++
      Seq(f"  ${"fail_frac"}%-28s ${failed.toDouble / attempted}%14.6f ${"frac"}%-8s $failed/$attempted failed") ++
      (if (traced) Report.table("per layer (traced)", layers) else Nil) ++
      errors.map("error: " + _) ++
      (if (mismatched > 0) Seq(s"error: $mismatched repetitions disagree with the first one's answer or counts") else Nil)
    val metrics = if (traced) layers else e2e
    BenchResult(lines, Json.obj(Seq(
      "correct" -> (failed == 0).toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(metrics.map(m =>
        m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))))))
  }
}
