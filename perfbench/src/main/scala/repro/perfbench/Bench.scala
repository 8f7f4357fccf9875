package repro.perfbench

import java.nio.file.{Path, Paths}
import org.apache.spark.sql.SparkSession
import repro.core.VaerConfig
import scala.collection.mutable

/** Entry point: `--workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]`.
  *
  * Runs one workload, checks its outputs, prints a report with the metric
  * names of each workload and, as the last line, one JSON object with the
  * end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
  * Exits 1 when an operation or a check fails.
  */
object Bench {

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, smoke: Boolean)

  /** Build output, traces and Spark scratch space, relative to the checkout root. */
  val OutDir: Path = Paths.get(".bench_build")

  private def parse(args: Array[String]): Args = {
    val kv = args.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val trace = need("trace")
    require(trace == "0" || trace == "1", s"--trace must be 0 or 1, got $trace")
    val seconds = need("seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    Args(need("workload"), need("seed").toLong, seconds, trace == "1", smoke = kv.get("smoke").contains("1"))
  }

  val workloads: Map[String, Ctx => Outcome] = Map(
    "supervised-cit2" -> Supervised.run,
    "active-rest"     -> Active.run,
    "serve-cit2"      -> Serve.run,
  )

  private def session(a: Args): SparkSession = {
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())
    val s = SparkSession.builder()
      .master(s"local[$cores]")
      .appName(s"perfbench-${a.workload}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", OutDir.resolve("spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", OutDir.resolve("spark-warehouse").toAbsolutePath.toString)
      // the session settings of the repository's jobs and tests
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(argv: Array[String]): Unit = {
    val a = parse(argv)
    val run = workloads.getOrElse(a.workload,
      throw new IllegalArgumentException(s"unknown workload ${a.workload}; one of ${workloads.keys.toSeq.sorted.mkString(", ")}"))
    Jvm.start()
    val tracer   = new Tracer(a.trace)
    val spark    = session(a)
    val counters = new SparkCounters
    spark.sparkContext.addSparkListener(counters)
    val ctx = new Ctx(spark, a, tracer)
    val outcome =
      try run(ctx)
      catch {
        case e: Throwable =>
          e.printStackTrace()
          ctx.checks.fail(s"workload aborted: $e")
          Outcome(Map.empty, Seq.empty, Map.empty)
      }
    spark.stop()

    val spans = tracer.recorded
    val layers =
      if (!a.trace) Map.empty[String, Double]
      else {
        val self = Tracer.selfSeconds(spans)
        val perSpan = Tracer.secondsPerSpan()
        Tracer.write(OutDir.resolve(s"trace-${a.workload}-${a.seed}.jsonl"), spans)
        // a layer the workload does not exercise reads 0
        Catalog.perLayer.map(_._1 -> 0.0).toMap ++ outcome.layers ++ counters.metrics("setup") ++ counters.metrics("timed") ++ Jvm.metrics() ++
          Catalog.layers.map(l => s"$l.self_s" -> self.getOrElse(l, 0.0)) ++
          Map("trace.spans" -> spans.size.toDouble,
              "trace.overhead_pct" -> 100.0 * spans.size * perSpan / math.max(ctx.timedSeconds, 1e-9))
      }

    println(s"# workload ${a.workload} seed ${a.seed} seconds ${a.seconds} trace ${if (a.trace) 1 else 0}" +
      (if (a.smoke) " smoke" else ""))
    outcome.report.foreach { case (name, value, unit) => println(f"$name%-28s ${fmtNum(value)} $unit") }
    val c = ctx.checks
    println(f"${"failed_frac"}%-28s ${fmtNum(c.failed.toDouble / math.max(1L, c.attempted))} ratio " +
      s"(${c.failed} of ${c.attempted} operations and checks)")
    c.failures.take(20).foreach(f => println(s"FAILED: $f"))
    if (a.trace) {
      println("# per-layer self time (s)")
      Catalog.layers.foreach(l => println(f"  $l%-8s ${fmtNum(layers(s"$l.self_s"))}"))
    }

    val (names, values) = if (a.trace) (Catalog.perLayer, layers) else (Catalog.endToEnd, outcome.e2e)
    val missing = names.collect { case (n, _) if !values.get(n).exists(v => !v.isNaN && !v.isInfinite) => n }
    if (missing.nonEmpty && c.failed == 0) c.fail(s"no value for ${missing.mkString(", ")}")
    val metricsJson = names.filterNot { case (n, _) => missing.contains(n) }.map { case (n, unit) =>
      s""""$n": {"value": ${values(n)}, "unit": "$unit"}"""
    }.mkString(", ")
    val ok = c.failed == 0
    println(s"""{"correct": $ok, "attempted": ${math.max(1L, c.attempted)}, "failed": ${c.failed}, "metrics": {$metricsJson}}""")
    System.out.flush()
    sys.exit(if (ok) 0 else 1)
  }

  /** Training examples `Siamese.train` visits for `n` pairs: epochs are
    * floored so that the optimizer takes at least `matchMinSteps` steps.
    */
  def matcherExamples(cfg: VaerConfig, n: Int): Double = {
    val batches = (n + cfg.matchBatch - 1) / cfg.matchBatch
    math.max(cfg.matchEpochs, (cfg.matchMinSteps + batches - 1) / batches).toDouble * n
  }

  def fmtNum(v: Double): String = if (v == math.rint(v) && math.abs(v) < 1e15) f"$v%.0f" else f"$v%.6g"
}

/** What a workload hands back: the end-to-end metrics of BENCHMARK.json, the
  * report lines under the workload's own metric names, and the per-layer
  * values it measured from its spans (only filled in a traced run).
  */
final case class Outcome(e2e: Map[String, Double], report: Seq[(String, Double, String)],
                         layers: Map[String, Double])

/** Operations and output checks, counted against each other for `failed_frac`. */
final class Checks {
  var attempted = 0L
  var failed    = 0L
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def fail(msg: String): Unit = { attempted += 1; failed += 1; failures += msg }

  def ops(n: Long, nFailed: Long): Unit = { attempted += n; failed += nFailed }

  def check(name: String)(cond: => Boolean): Unit = {
    attempted += 1
    val ok = try cond catch { case e: Exception => failures += s"$name: $e"; false }
    if (!ok) { failed += 1; failures += name }
  }
}

/** Per-run state shared by the workloads. */
final class Ctx(val spark: SparkSession, val args: Bench.Args, val tracer: Tracer) {
  val checks = new Checks
  /** Wall seconds of the timed phase, the base of the tracing overhead. */
  var timedSeconds = 0.0

  def seed: Long = args.seed

  /** The model configuration; smoke runs train for a few steps only. */
  def config(base: VaerConfig): VaerConfig =
    if (args.smoke) base.copy(vaeEpochs = 3, matchEpochs = 3, matchMinSteps = 150) else base

  /** A model seed derived from the workload seed. */
  def derive(tag: Long): Long = new repro.nn.Rng(args.seed * 0x9E3779B97F4A7C15L ^ tag).nextLong()

  /** Subsequent Spark jobs count towards this phase (setup, timed or check). */
  def phase(name: String): Unit = spark.sparkContext.setJobGroup(name, name)

  def span[A](name: String, run: String)(body: => A): A = tracer.span(name, run)(body)

  /** Runs `body` and returns it with its wall seconds. */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** Runs `body(i)` for i = 0, 1, ... while one more run of the last one's
    * length fits in the run's seconds (at least once); returns each result
    * with its wall seconds and records the timed phase's length.
    */
  def repeat[A](body: Int => A): Vector[(A, Double)] = {
    phase("timed")
    val t0  = System.nanoTime()
    val out = Vector.newBuilder[(A, Double)]
    var i = 0
    var last = 0.0
    while (i == 0 || (System.nanoTime() - t0) / 1e9 + last <= args.seconds) {
      val r = timed(body(i))
      out += r
      last = r._2
      i += 1
    }
    timedSeconds = (System.nanoTime() - t0) / 1e9
    out.result()
  }

  /** Runs the set-up `n` times (the last result is kept) and returns it with
    * the median set-up seconds.
    */
  def setup[A](n: Int)(body: Int => A): (A, Double) = {
    phase("setup")
    val runs = (0 until n).map(i => timed(body(i)))
    (runs.last._1, Stats.median(runs.map(_._2)))
  }
}

/** The metric names and units; BENCHMARK.json lists the same. */
object Catalog {
  val endToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "latency_p50_ms" -> "ms", "throughput_per_s" -> "1/s",
    "quality" -> "ratio", "blocking_recall" -> "ratio")

  val layers: Seq[String] = Seq("data", "ir", "core", "lsh", "kde", "er", "serve", "bench")

  val perLayer: Seq[(String, String)] = Seq(
    "data.generate_s" -> "s",
    "ir.compute_s" -> "s", "ir.query_us" -> "us",
    "core.vae.train_s" -> "s", "core.vae.samples_per_s" -> "1/s",
    "core.encode.tuples_per_s" -> "1/s", "core.encode.query_us" -> "us",
    "core.matcher.train_s" -> "s", "core.matcher.examples_per_s" -> "1/s",
    "core.predict.pairs_per_s" -> "1/s",
    "core.bootstrap_s" -> "s", "core.al.rounds" -> "count", "core.al.labels_per_round" -> "count",
    "core.al.replay_retrain_s" -> "s", "core.al.replay_predict_s" -> "s",
    "kde.replay_density_evals_per_s" -> "1/s",
    "lsh.pool_size" -> "count", "lsh.pool_recall" -> "ratio",
    "er.topk_eval_s" -> "s", "er.knn.query_us" -> "us",
    "spark.setup.jobs" -> "count", "spark.setup.tasks" -> "count", "spark.setup.shuffle_mb" -> "MB",
    "spark.timed.jobs" -> "count", "spark.timed.tasks" -> "count", "spark.timed.shuffle_mb" -> "MB",
    "serve.gen_lag_ms" -> "ms", "serve.queue_wait_ms" -> "ms", "serve.p99_ms" -> "ms", "serve.ladder_qps" -> "1/s",
    "jvm.gc_s" -> "s", "jvm.heap_peak_mb" -> "MB",
    "trace.spans" -> "count", "trace.overhead_pct" -> "%",
  ) ++ layers.map(l => s"$l.self_s" -> "s")
}
