package ddsbench

/** A reported metric: the median of its per-repetition samples. */
final case class Metric(name: String, unit: String, samples: Seq[Double]) {
  def value: Double = Report.median(samples)
}

object Report {

  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
    }

  private def ok(reps: Seq[Rep]): Seq[Rep] = reps.filter(_.error.isEmpty)

  def endToEnd(untraced: Seq[Rep], m: Long): Seq[Metric] = {
    val rs = ok(untraced)
    Seq(
      Metric("setup_s", "s", rs.map(_.setupNs / 1e9)),
      Metric("solve_s", "s", rs.map(_.solveNs / 1e9)),
      Metric("edges_per_s", "1/s", rs.map(r => m / ((r.setupNs + r.solveNs) / 1e9))),
      Metric("rho", "edges/vertex", rs.map(_.answer.rho)))
  }

  /** Per-layer metrics of each traced repetition, as medians. Self times are
    * the solve time minus the spans the benchmark opened inside it.
    */
  def perLayer(traced: Seq[Rep], untraced: Seq[Rep], exact: Boolean): Seq[Metric] = {
    val rows: Seq[Seq[(String, String, Double)]] = ok(traced).map { r =>
      val (t, work) = r.trace.get
      val none = new SparkWork
      def w(span: String) = work.getOrElse(span, none)
      def spanMs(span: String) = t.spanNanos(span) / 1e6
      val probeMs = t.probeNanos.map(_ / 1e6).toSeq
      val probes = probeMs.length.toDouble
      val solveMs = r.solveNs / 1e6
      val inner = Seq(Span.Core, Span.Sub, Span.Candidate, Span.FullSub).map(spanMs).sum
      val solveWork = Span.inSolve.toSeq.map(w)
      val nodes = t.networkNodes.map(_.toDouble).toSeq
      val s = r.solved.get
      Seq(
        ("setup.ctor_ms", "ms", r.ctorNs / 1e6),
        ("setup.stats_ms", "ms", r.statsNs / 1e6),
        ("setup.spark_jobs", "count", w(Span.Setup).jobs.toDouble),
        ("setup.spark_tasks", "count", w(Span.Setup).tasks.toDouble),
        ("setup.shuffle_write_bytes", "B", w(Span.Setup).shuffleWriteBytes.toDouble),
        ("core.probes", "count", probes),
        ("core.probes_empty", "count", t.probesEmpty.toDouble),
        ("core.useful_frac", "frac", if (probes == 0) 0.0 else (probes - t.probesEmpty) / probes),
        ("core.probe_ms", "ms", spanMs(Span.Core)),
        ("core.probe_ms_p50", "ms", median(probeMs)),
        ("core.probe_ms_max", "ms", if (probeMs.isEmpty) 0.0 else probeMs.max),
        ("core.first_probe_ms", "ms", probeMs.headOption.getOrElse(0.0)),
        ("core.spark_jobs", "count", w(Span.Core).jobs.toDouble),
        ("core.spark_tasks", "count", w(Span.Core).tasks.toDouble),
        ("core.shuffle_bytes", "B", w(Span.Core).shuffleWriteBytes.toDouble),
        ("core.sub_calls", "count", t.subCalls.toDouble),
        ("core.sub_ms", "ms", spanMs(Span.Sub)),
        ("core.sub_edges", "count", t.subEdges.toDouble),
        ("core.candidate_ms", "ms", spanMs(Span.Candidate)),
        ("core.fullsub_ms", "ms", spanMs(Span.FullSub)),
        ("exact.ratio_probes", "count", s.ratioProbes.toDouble),
        ("exact.flows", "count", s.flows.toDouble),
        ("exact.self_ms", "ms", if (exact) solveMs - inner else 0.0),
        ("flow.network_nodes_first", "count", nodes.headOption.getOrElse(0.0)),
        ("flow.network_nodes_max", "count", if (nodes.isEmpty) 0.0 else nodes.max),
        ("flow.network_nodes_total", "count", nodes.sum),
        ("approx.self_ms", "ms", if (exact) 0.0 else solveMs - inner),
        ("solve.spark_jobs", "count", solveWork.map(_.jobs).sum.toDouble),
        ("solve.spark_stages", "count", solveWork.map(_.stages).sum.toDouble),
        ("solve.spark_tasks", "count", solveWork.map(_.tasks).sum.toDouble),
        ("solve.shuffle_read_bytes", "B", solveWork.map(_.shuffleReadBytes).sum.toDouble),
        ("solve.spark_job_ms", "ms", solveWork.map(_.jobMs).sum.toDouble),
        ("jvm.peak_after_gc_mb", "MB", r.peakAfterGcBytes / 1048576.0),
        ("jvm.retained_mb", "MB", r.retainedBytes / 1048576.0),
        ("jvm.alloc_mb", "MB", r.allocatedBytes / 1048576.0),
        ("jvm.gc_ms", "ms", r.gcMs.toDouble),
        ("jvm.gc_count", "count", r.gcCount.toDouble))
    }
    val metrics = rows.headOption.toSeq.flatMap(_.indices).map { i =>
      val (name, unit, _) = rows.head(i)
      Metric(name, unit, rows.map(_(i)._3))
    }
    val tracedSolve = median(ok(traced).map(_.solveNs.toDouble))
    val untracedSolve = median(ok(untraced).map(_.solveNs.toDouble))
    val overhead = if (untracedSolve > 0) (tracedSolve - untracedSolve) / untracedSolve else 0.0
    metrics :+ Metric("trace.overhead_frac", "frac", Seq(overhead))
  }

  def table(title: String, ms: Seq[Metric]): Seq[String] =
    s"$title:" +: f"  ${"metric"}%-28s ${"median"}%14s ${"unit"}%-8s ${"n"}%3s ${"min"}%14s ${"max"}%14s" +:
      ms.map { m =>
        val lo = if (m.samples.isEmpty) 0.0 else m.samples.min
        val hi = if (m.samples.isEmpty) 0.0 else m.samples.max
        f"  ${m.name}%-28s ${m.value}%14.6g ${m.unit}%-8s ${m.samples.length}%3d $lo%14.6g $hi%14.6g"
      }
}

/** Just enough JSON for the result line. */
object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'  => "\\\""
      case '\\' => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c    => c.toString
    } + "\""

  def num(d: Double): String = if (d.isNaN || d.isInfinite) "0" else d.toString

  def obj(kv: Seq[(String, String)]): String =
    kv.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
