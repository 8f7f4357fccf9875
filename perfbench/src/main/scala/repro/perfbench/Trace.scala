package repro.perfbench

import java.lang.management.{ManagementFactory, MemoryType}
import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** One timed call into a layer. `parent` is the id of the enclosing span on
  * the same thread (-1 at the root); the spans of one job, session or
  * request share `run`.
  */
final case class Span(id: Int, name: String, start: Long, end: Long, parent: Int, run: String) {
  def seconds: Double = (end - start) / 1e9
  /** The layer is the span name up to its first dot: data, ir, core, lsh, kde, er, serve or bench. */
  def layer: String = name.takeWhile(_ != '.')
}

/** In-memory span recorder around the benchmark's calls into the library.
  * When disabled, `span` only runs its body, so the untraced run carries no
  * bookkeeping.
  */
final class Tracer(val enabled: Boolean) {
  private val spans  = mutable.ArrayBuffer.empty[Span]
  private val open   = ThreadLocal.withInitial[List[Int]](() => Nil)
  private var nextId = 0

  def span[A](name: String, run: String)(body: => A): A =
    if (!enabled) body
    else {
      val outer = open.get
      val id    = synchronized { nextId += 1; nextId }
      open.set(id :: outer)
      val t0 = System.nanoTime()
      try body
      finally {
        val t1 = System.nanoTime()
        open.set(outer)
        val s = Span(id, name, t0, t1, outer.headOption.getOrElse(-1), run)
        synchronized { spans += s }
      }
    }

  def recorded: Vector[Span] = synchronized(spans.toVector)
}

object Tracer {

  /** Seconds per layer not covered by child spans. A span's children run one
    * after another on its thread, so their durations add up without overlap.
    */
  def selfSeconds(spans: Seq[Span]): Map[String, Double] = {
    val childNanos = mutable.HashMap.empty[Int, Long].withDefaultValue(0L)
    spans.foreach(s => if (s.parent >= 0) childNanos(s.parent) += s.end - s.start)
    spans.groupMapReduce(_.layer)(s => (s.end - s.start - childNanos(s.id)) / 1e9)(_ + _)
  }

  /** Median duration in seconds of the spans with this name; 0 when there are none. */
  def medianSeconds(spans: Seq[Span], name: String): Double = {
    val d = spans.filter(_.name == name).map(_.seconds)
    if (d.isEmpty) 0.0 else Stats.median(d)
  }

  /** Cost of one recorded span, measured on a scratch recorder. */
  def secondsPerSpan(): Double = {
    val t = new Tracer(enabled = true)
    val n = 200000
    val t0 = System.nanoTime()
    var i = 0
    while (i < n) { t.span("bench.calibrate", "calibrate")(i); i += 1 }
    (System.nanoTime() - t0) / 1e9 / n
  }

  /** Spans as JSON lines, times in nanoseconds from the first span's start. */
  def write(path: Path, spans: Seq[Span]): Unit = {
    Files.createDirectories(path.getParent)
    val t0 = if (spans.isEmpty) 0L else spans.map(_.start).min
    val lines = spans.sortBy(_.start).map { s =>
      s"""{"id":${s.id},"name":"${s.name}","start_ns":${s.start - t0},"end_ns":${s.end - t0},""" +
        s""""parent":${s.parent},"run":"${s.run}"}"""
    }
    Files.write(path, lines.asJava, StandardCharsets.UTF_8)
  }
}

/** Counts Spark jobs, tasks and shuffle bytes per benchmark phase. The phase
  * is the job group the benchmark sets before each phase. Listener events
  * arrive asynchronously; read the counts after `SparkContext.stop`, which
  * drains the event queue.
  */
final class SparkCounters extends SparkListener {
  private val stagePhase   = mutable.HashMap.empty[Int, String]
  private val jobs         = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
  private val tasks        = mutable.HashMap.empty[String, Long].withDefaultValue(0L)
  private val shuffleBytes = mutable.HashMap.empty[String, Long].withDefaultValue(0L)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val phase = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("other")
    jobs(phase) += 1
    e.stageIds.foreach(stagePhase(_) = phase)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val phase = stagePhase.getOrElse(e.stageId, "other")
    tasks(phase) += 1
    if (e.taskMetrics != null) shuffleBytes(phase) += e.taskMetrics.shuffleWriteMetrics.bytesWritten
  }

  def metrics(phase: String): Map[String, Double] = synchronized {
    Map(
      s"spark.$phase.jobs"       -> jobs(phase).toDouble,
      s"spark.$phase.tasks"      -> tasks(phase).toDouble,
      s"spark.$phase.shuffle_mb" -> shuffleBytes(phase) / 1e6)
  }
}

/** Garbage-collection time and peak heap of this JVM since `start`. */
object Jvm {
  private def gcMillis: Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(b => math.max(0L, b.getCollectionTime)).sum

  private lazy val gcAtStart = gcMillis

  def start(): Unit = {
    ManagementFactory.getMemoryPoolMXBeans.asScala.foreach(_.resetPeakUsage())
    gcAtStart
  }

  def metrics(): Map[String, Double] = {
    val heapPeak = ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == MemoryType.HEAP).map(_.getPeakUsage.getUsed).sum
    Map("jvm.gc_s" -> (gcMillis - gcAtStart) / 1e3, "jvm.heap_peak_mb" -> heapPeak / 1e6)
  }
}

object Stats {
  /** Linear-interpolated quantile, as numpy's default. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s   = xs.sorted.toIndexedSeq
    val pos = q * (s.length - 1)
    val lo  = math.floor(pos).toInt
    val hi  = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** p99 or p90, whichever is highest with at least ten samples above it,
    * else the maximum; with its label.
    */
  def tail(xs: Seq[Double]): (Double, String) =
    if (xs.length >= 1000) (quantile(xs, 0.99), "p99")
    else if (xs.length >= 100) (quantile(xs, 0.90), "p90")
    else (xs.max, "max")
}
