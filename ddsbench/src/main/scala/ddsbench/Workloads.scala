package ddsbench

/** One benchmark workload: an input family and the algorithm run on it.
  *
  * Every input of a workload relabels the one graph drawn from
  * ``graphSeed``, so runs with different seeds do the same work on
  * different inputs. ``cutoffShare``, when set, gives ``SparkCoreEngine`` a
  * local cutoff of that share of the input's edge count; otherwise the
  * engine's default cutoff applies.
  */
final case class Workload(name: String, n: Int, draws: Int, graphSeed: Long, exact: Boolean,
                          cutoffShare: Option[Double]) {
  def input(seed: Long): Input = Inputs.powerLaw(n, draws, graphSeed, seed)
}

/** What every input of a workload must look like, and its known answer: the
  * optimum (m, |S|, |T|) for CoreExact, the product x*·y* for CoreApprox.
  */
final case class Pin(n: Long, m: Long, optimum: Option[Answer], xy: Option[Long])

object Workloads {

  val all: Seq[Workload] = Seq(
    // CoreApprox with the engine's local cutoff just below the input's edge
    // count: the first core probes run as XYCore dataflow rounds and end in
    // driver collects, the rest run on the collected cores. The only
    // workload where the Spark peel runs (the Spark-vs-driver policy).
    Workload("approx-spark", n = 10000, draws = 100000, graphSeed = 1, exact = false,
             cutoffShare = Some(0.98)),
    // CoreExact below the driver cutoff: local core probes, CoreSub
    // materialization, flows and ratio search. The only workload with flows.
    Workload("exact-powerlaw", n = 5000, draws = 50000, graphSeed = 1, exact = true,
             cutoffShare = None),
  )

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Checked on every run; the CoreExact optimum was computed by DDSExact's
    * DC mode and agreed with CoreExact, and x*·y* is CoreApprox's.
    */
  val pins: Map[String, Pin] = Map(
    "approx-spark" -> Pin(9823, 72482, None, Some(2417L)),
    "exact-powerlaw" -> Pin(4918, 36294, Some(Answer(319, 32, 4155)), None)
  )

  /** Checksums of the canonical edge lists for seeds 0 to 20. */
  val checksums: Map[(String, Long), Long] = Map(
    ("approx-spark", 0L) -> 7153017765033791248L,
    ("approx-spark", 1L) -> -3790240877406496804L,
    ("approx-spark", 2L) -> 9196351772515994190L,
    ("approx-spark", 3L) -> -3769408018148288620L,
    ("approx-spark", 4L) -> -5487859882067012718L,
    ("approx-spark", 5L) -> -5591450274809385926L,
    ("approx-spark", 6L) -> 5516982569945931206L,
    ("approx-spark", 7L) -> 3086585443338735856L,
    ("approx-spark", 8L) -> -8034351916954487891L,
    ("approx-spark", 9L) -> -8977923108151466540L,
    ("approx-spark", 10L) -> 1511117416829572342L,
    ("approx-spark", 11L) -> -8414834828899967241L,
    ("approx-spark", 12L) -> -2866649126836750115L,
    ("approx-spark", 13L) -> 1360834840594800834L,
    ("approx-spark", 14L) -> -5645659095596154964L,
    ("approx-spark", 15L) -> 2035881694298479543L,
    ("approx-spark", 16L) -> -1005996544954797386L,
    ("approx-spark", 17L) -> -1525864124410655748L,
    ("approx-spark", 18L) -> 2602954302252379752L,
    ("approx-spark", 19L) -> -2165215917717587507L,
    ("approx-spark", 20L) -> -2537246973883264393L,
    ("exact-powerlaw", 0L) -> 7862841378422151248L,
    ("exact-powerlaw", 1L) -> -3203901062215447731L,
    ("exact-powerlaw", 2L) -> -2693079693461275639L,
    ("exact-powerlaw", 3L) -> 8059460526597417543L,
    ("exact-powerlaw", 4L) -> 9018809172298669497L,
    ("exact-powerlaw", 5L) -> 8093716415304521922L,
    ("exact-powerlaw", 6L) -> -3657528105787085902L,
    ("exact-powerlaw", 7L) -> -8149885694720500603L,
    ("exact-powerlaw", 8L) -> 3484719777322741248L,
    ("exact-powerlaw", 9L) -> -8619254138570371114L,
    ("exact-powerlaw", 10L) -> -3495618999343647039L,
    ("exact-powerlaw", 11L) -> 1262179536908565046L,
    ("exact-powerlaw", 12L) -> 3252051324496393197L,
    ("exact-powerlaw", 13L) -> -7606681617610595062L,
    ("exact-powerlaw", 14L) -> 3173527577416624658L,
    ("exact-powerlaw", 15L) -> -9186660532837080246L,
    ("exact-powerlaw", 16L) -> -6374516018112618708L,
    ("exact-powerlaw", 17L) -> 7143124235698908488L,
    ("exact-powerlaw", 18L) -> 993974930817929466L,
    ("exact-powerlaw", 19L) -> 4470017547647860109L,
    ("exact-powerlaw", 20L) -> -2061148173706297288L
  )
}
