package ddsbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._
import repro.core.{Candidate, CoreEngine, CoreHandle, CoreSub}
import repro.flow.DensityFlow

/** Spans the benchmark opens around calls into the program's layers. */
object Span {
  val Setup     = "setup"
  val Solve     = "solve"
  val Core      = "core"
  val Sub       = "sub"
  val Candidate = "candidate"
  val FullSub   = "fullsub"
  /** Spans that run inside the solve call. */
  val inSolve: Set[String] = Set(Solve, Core, Sub, Candidate, FullSub)
  /** Spark local property that tags every job with the span that started it. */
  val Property = "ddsbench.span"
}

/** Spark work attributed to one span. */
final class SparkWork {
  var jobs = 0L
  var stages = 0L
  var tasks = 0L
  var jobMs = 0L
  var shuffleReadBytes = 0L
  var shuffleWriteBytes = 0L
}

/** Attributes each job's stages, tasks, shuffle bytes and duration to the
  * span that was open on the driver thread when the job started (the span
  * travels as a job property). Driver calls are sequential, so the span of
  * a job is unambiguous.
  */
final class SpanListener extends SparkListener {
  private val stageSpan = mutable.Map.empty[Int, String]
  private val jobSpan = mutable.Map.empty[Int, (String, Long)]
  private val work = mutable.Map.empty[String, SparkWork]

  private def of(span: String): SparkWork = work.getOrElseUpdate(span, new SparkWork)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val span = Option(e.properties).flatMap(p => Option(p.getProperty(Span.Property))).getOrElse("other")
    jobSpan(e.jobId) = (span, e.time)
    e.stageIds.foreach(stageSpan(_) = span)
    of(span).jobs += 1
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    jobSpan.remove(e.jobId).foreach { case (span, t0) => of(span).jobMs += e.time - t0 }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    stageSpan.get(e.stageInfo.stageId).foreach(of(_).stages += 1)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    stageSpan.get(e.stageId).foreach { span =>
      val w = of(span)
      w.tasks += 1
      Option(e.taskMetrics).foreach { tm =>
        w.shuffleReadBytes += tm.shuffleReadMetrics.totalBytesRead
        w.shuffleWriteBytes += tm.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  /** Work per span since the last call, after every posted event is delivered. */
  def drain(sc: SparkContext): Map[String, SparkWork] = {
    org.apache.spark.ListenerBusAccess.waitUntilEmpty(sc)
    synchronized {
      val out = work.toMap
      work.clear()
      stageSpan.clear()
      out
    }
  }
}

/** Timings and counts of one traced repetition. */
final class RepTrace(sc: SparkContext) {
  val probeNanos = mutable.ArrayBuffer.empty[Long]
  var probesEmpty = 0L
  val spanNanos = mutable.Map.empty[String, Long].withDefaultValue(0L)
  var subCalls = 0L
  var subEdges = 0L
  val networkNodes = mutable.ArrayBuffer.empty[Long]

  /** Runs ``f`` inside span ``name``: tags its Spark jobs and adds its wall
    * time to the span. Spans do not nest except under setup and solve.
    */
  def span[A](name: String)(f: => A): A = {
    val parent = sc.getLocalProperty(Span.Property)
    sc.setLocalProperty(Span.Property, name)
    val t0 = System.nanoTime()
    try f
    finally {
      spanNanos(name) += System.nanoTime() - t0
      sc.setLocalProperty(Span.Property, parent)
    }
  }
}

/** Decorates an engine so that every call into the core layer is timed.
  *
  * Handles passed back as ``warm`` are unwrapped first: the engines
  * warm-start only from their own handle types, and a wrapped handle would
  * silently turn every warm start into a full peel.
  */
final class TracedEngine(inner: CoreEngine, t: RepTrace) extends CoreEngine {
  def n: Long = inner.n
  def m: Long = inner.m
  def fullSub(): CoreSub = t.span(Span.FullSub)(inner.fullSub())

  def core(x: Int, y: Int, warm: Option[CoreHandle]): Option[CoreHandle] = {
    val w = warm.map {
      case h: TracedHandle => h.inner
      case h               => h
    }
    val t0 = System.nanoTime()
    val r = t.span(Span.Core)(inner.core(x, y, w))
    t.probeNanos += System.nanoTime() - t0
    if (r.isEmpty) t.probesEmpty += 1
    r.map(new TracedHandle(_, t))
  }
}

final class TracedHandle(val inner: CoreHandle, t: RepTrace) extends CoreHandle {
  def x: Int = inner.x
  def y: Int = inner.y
  def sSize: Long = inner.sSize
  def tSize: Long = inner.tSize
  def m: Long = inner.m
  override def density: Double = inner.density

  def sub(): CoreSub = {
    val s = t.span(Span.Sub)(inner.sub())
    t.subCalls += 1
    t.subEdges += s.m
    t.networkNodes += DensityFlow.networkNodes(s).toLong
    s
  }

  def candidate(): Candidate = t.span(Span.Candidate)(inner.candidate())
}

/** Garbage-collector totals and driver heap sizes. */
object Jvm {
  private val gcs = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq
  private val memory = ManagementFactory.getMemoryMXBean

  def gcCount: Long = gcs.map(_.getCollectionCount).filter(_ >= 0).sum
  def gcMillis: Long = gcs.map(_.getCollectionTime).filter(_ >= 0).sum

  private val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the live threads (driver and task threads). */
  def allocatedBytes: Long =
    threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum

  @volatile private var peakAfterGc = 0L

  // Heap in use after every collection the program triggers.
  gcs.foreach {
    case e: javax.management.NotificationEmitter =>
      e.addNotificationListener((n: javax.management.Notification, _: AnyRef) => {
        n.getUserData match {
          case cd: javax.management.openmbean.CompositeData
              if n.getType == "com.sun.management.gc.notification" =>
            val info = com.sun.management.GarbageCollectionNotificationInfo.from(cd)
            // Forced collections are measured by the caller; their
            // notifications can arrive after the next window has started.
            if (info.getGcCause != "System.gc()") {
              val used = info.getGcInfo.getMemoryUsageAfterGc.asScala.iterator
                .filter { case (pool, _) => heapPools.contains(pool) }
                .map(_._2.getUsed).sum
              if (used > peakAfterGc) peakAfterGc = used
            }
          case _ => ()
        }
      }, null, null)
    case _ => ()
  }

  private lazy val heapPools: Set[String] =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP).map(_.getName).toSet

  /** Heap in use after a full collection. */
  def liveBytes(): Long = {
    System.gc()
    memory.getHeapMemoryUsage.getUsed
  }

  /** Starts a new window for ``peakAfterGcBytes``; returns ``liveBytes``. */
  def startWindow(): Long = {
    val live = liveBytes()
    peakAfterGc = live
    live
  }

  /** The most heap left in use after any collection since ``startWindow``.
    * Young collections leave dead objects of the old generation in place,
    * so this bounds the live set from above.
    */
  def peakAfterGcBytes: Long = peakAfterGc
}
