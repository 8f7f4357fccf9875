package repro.perfbench

import java.util.concurrent.LinkedBlockingQueue
import scala.collection.immutable.ArraySeq
import repro.core.{PairExample, Represent, Siamese, VaeModel, Vaer, VaerConfig}
import repro.data.ErSynth
import repro.er.{Knn, Metrics}
import repro.ir.{HashEmb, IrSet, W2vIr}
import repro.nn.Mat

/** serve-cit2: online matching of arriving records.
  *
  * Set-up trains on W2V IRs, which embed unseen records without refitting
  * (§III-D), and encodes the A side as the index. Each request is one
  * B-side record: hashed word embeddings per attribute, VAE encoding, exact
  * top-K against the index, and Siamese scoring of the K candidates; the
  * best candidate is emitted as a match when its probability is above 0.5.
  *
  * Load is an open loop: one generator thread enqueues requests on a fixed
  * schedule and one handler thread answers them (HashEmb's word cache is not
  * synchronized). Latency runs from each request's due time, so a stall
  * also counts against the requests queued behind it. Requests cycle through
  * B; a full pass over B before timing warms the caches and gives the
  * answers the checks compare against.
  */
object Serve {

  /** Fewer epochs and a lower step floor than the batch workloads, so that
    * set-up (run three times) fits a run.
    */
  val Cfg: VaerConfig = VaerConfig(vaeEpochs = 4, matchEpochs = 4, matchMinSteps = 100)
  val K = 10
  /** Latency limit of the rate ladder. */
  val LimitMs = 10.0
  /** The fixed rate at which latency percentiles are reported; the ladder's first rung. */
  val FixedRate = 250.0
  val FixedRequests = 1200
  /** The rungs above the fixed rate: 500 req/s and up by 15 % a rung, at
    * most six, so that the ladder stays within a run.
    */
  val Ladder: Seq[Double] = Iterator.iterate(500.0)(_ * 1.15).take(6).map(math.rint).toSeq
  /** Requests per rung, so that p99 has ten samples above it. */
  val RungRequests = 1000

  /** A rung passes when no request failed, p99 latency is within the limit and
    * the backlog did not grow: the last tenth of the requests has a median
    * latency within the limit.
    */
  def keepsUp(reqs: IndexedSeq[Req]): Boolean = {
    val lat = reqs.map(_.latencyMs)
    reqs.forall(_.error == null) && Stats.quantile(lat, 0.99) <= LimitMs &&
      Stats.median(lat.takeRight(math.max(1, lat.size / 10))) <= LimitMs
  }

  final case class Answer(bid: Long, cands: IndexedSeq[Long], probs: IndexedSeq[Double]) {
    val best: Int = probs.indices.maxBy(probs)
    def emitted: Option[(Long, Long)] = if (probs(best) > 0.5) Some((cands(best), bid)) else None
  }

  /** The online matcher: trained models plus the encoded A-side index. */
  final class Service(vae: VaeModel, matcher: Siamese, index: IndexedSeq[(Long, Array[Double])],
                      aIrs: Map[Long, Array[Array[Double]]], dim: Int, tracer: Tracer) {
    private val emb = new HashEmb(dim)

    def handle(bid: Long, attrs: Array[String], run: String): Answer = tracer.span("serve.request", run) {
      val q     = tracer.span("ir.query", run)(attrs.map(emb.sentence))
      // rows are attributes, so the row-major data is the concatenated mu
      val key   = tracer.span("core.encode.query", run)(vae.encodeBatch(Mat.fromRows(ArraySeq.unsafeWrapArray(q)))._1.data)
      val cands = tracer.span("er.knn.query", run)(Knn.topK(IndexedSeq(bid -> key), index, K)(bid))
      val probs = tracer.span("core.predict.query", run)(
        matcher.predict(cands.map(c => PairExample(aIrs(c._1), q, 0))))
      Answer(bid, cands.map(_._1), probs.toIndexedSeq)
    }
  }

  final class Req(val i: Int, val due: Long) {
    var enq = 0L; var start = 0L; var end = 0L
    var answer: Answer = _
    var error: Throwable = _
    def latencyMs: Double = (end - due) / 1e6
  }

  /** Sends `n` requests at `rate` per second, cycling through `records` from
    * `offset`, and waits for every answer.
    */
  def drive(svc: Service, records: IndexedSeq[(Long, Array[String])], rate: Double, n: Int,
            offset: Int, tag: String): IndexedSeq[Req] = {
    val queue = new LinkedBlockingQueue[Req]()
    val stop  = new Req(-1, 0L)
    val t0    = System.nanoTime() + 1000000L
    val reqs  = IndexedSeq.tabulate(n)(i => new Req(i, t0 + (i * 1e9 / rate).toLong))
    val handler = new Thread(() => {
      var r = queue.take()
      while (r ne stop) {
        r.start = System.nanoTime()
        val (bid, attrs) = records((offset + r.i) % records.size)
        try r.answer = svc.handle(bid, attrs, s"$tag-${r.i}")
        catch { case e: Exception => r.error = e }
        r.end = System.nanoTime()
        r = queue.take()
      }
    }, "serve-handler")
    val generator = new Thread(() => {
      reqs.foreach { r =>
        // spin: a parked thread wakes up late by up to milliseconds
        while (System.nanoTime() < r.due) Thread.onSpinWait()
        r.enq = System.nanoTime()
        queue.put(r)
      }
      queue.put(stop)
    }, "serve-generator")
    handler.start(); generator.start()
    generator.join(); handler.join()
    reqs
  }

  def run(ctx: Ctx): Outcome = {
    val smoke = ctx.args.smoke
    val cfg   = ctx.config(Cfg)
    val ((ds, records, svc, irs, matcher, reprs, index, aIrs), setupS) = ctx.setup(3) { i =>
      val r = s"setup-$i"
      val (ds, train, records) = ctx.span("data.generate", r) {
        val ds = if (smoke) ErSynth.generateTiny(ctx.spark, "Cit. 2", ctx.seed)
                 else ErSynth.generate(ctx.spark, Supervised.spec, ctx.seed)
        val records = ds.b.collect().toIndexedSeq.map { row =>
          row.getLong(0) -> Array.tabulate(ds.arity)(ai => Option(row.get(ai + 1)).map(_.toString).getOrElse(""))
        }.sortBy(_._1)
        (ds, Vaer.collectPairs(ds.train), records)
      }
      val irs     = ctx.span("ir.compute", r)(new W2vIr(cfg.irDim).compute(ds)(ctx.spark))
      val vae     = ctx.span("core.vae.train", r)(Vaer.trainVae(irs, cfg, seed = ctx.derive(1)))
      val matcher = ctx.span("core.matcher.train", r)(Vaer.trainMatcher(vae, irs, train, cfg, seed = ctx.derive(2)))
      val reprs   = ctx.span("core.encode", r)(Represent.encodeAll(vae, irs))
      val index   = reprs.collect { case (("A", id), t) => (id, t.muFlat) }.toIndexedSeq.sortBy(_._1)
      val aIrs    = irs.irs.collect { case (("A", id), v) => id -> v }
      (ds, records, new Service(vae, matcher, index, aIrs, cfg.irDim, ctx.tracer), irs, matcher, reprs, index, aIrs)
    }
    val truth = ds.matches.collect().map(m => (m.getLong(0), m.getLong(1))).toSet

    // warm-up: one pass over B, answered one record at a time
    val warm = records.map { case (bid, attrs) => svc.handle(bid, attrs, s"warm-$bid") }

    ctx.phase("timed")
    val t0 = System.nanoTime()
    val fixedN = if (smoke) 200 else FixedRequests
    val fixed  = drive(svc, records, FixedRate, fixedN, 0, "fixed")
    var offset = fixedN
    // one handler's rate at its median service time; the mean follows the
    // machine's slow phases (preemption, GC) too closely to be compared
    val capacity = 1e9 / Stats.median(fixed.map(r => (r.end - r.start).toDouble))
    val steps  = Vector.newBuilder[(Double, IndexedSeq[Req], Boolean)]
    var passing = keepsUp(fixed)
    steps += ((FixedRate, fixed, passing))
    val ladder = Ladder.iterator
    while (passing && ladder.hasNext && !smoke) {
      val rate = ladder.next()
      val reqs = drive(svc, records, rate, RungRequests, offset, s"rung$rate")
      offset += RungRequests
      passing = keepsUp(reqs)
      steps += ((rate, reqs, passing))
    }
    ctx.timedSeconds = (System.nanoTime() - t0) / 1e9
    val ladderRuns = steps.result()
    val timedReqs  = ladderRuns.flatMap(_._2)
    val errors     = timedReqs.count(_.error != null)
    ctx.checks.ops(timedReqs.size + warm.size, errors)

    ctx.phase("check")
    val warmOf = warm.map(a => a.bid -> a).toMap
    ctx.checks.check("timed answers equal the warm-up answers for the same record") {
      timedReqs.filter(_.error == null).forall { r =>
        val w = warmOf(r.answer.bid); w.cands == r.answer.cands && w.probs == r.answer.probs
      }
    }
    checkBatched(ctx, warm, matcher, irs, reprs, index)
    val emitted = warm.flatMap(_.emitted)
    ctx.checks.check("every emitted pair names its query's record, an indexed A record and probability > 0.5") {
      warm.forall(a => a.emitted.forall { case (ia, ib) => ib == a.bid && aIrs.contains(ia) && a.probs(a.best) > 0.5 })
    }
    val tp = emitted.count(truth.contains).toLong
    val prf = Metrics.fromCounts(tp, emitted.size - tp, truth.size - tp)
    val candsOf = warm.map(a => a.bid -> a.cands.toSet).toMap
    val blockingRecall = truth.count { case (ia, ib) => candsOf.get(ib).exists(_.contains(ia)) }.toDouble /
      math.max(1, truth.size)
    // threshold-free: the true A record is the best-scored candidate
    val topOne = truth.count { case (ia, ib) => warmOf.get(ib).exists(a => a.cands(a.best) == ia) }.toDouble /
      math.max(1, truth.size)

    val fixedLat = fixed.map(_.latencyMs)
    val (tail, tailLabel) = Stats.tail(fixedLat)
    val qps = ladderRuns.takeWhile(_._3).lastOption.map(_._1).getOrElse(0.0)
    val e2e = Map(
      "setup_s" -> setupS,
      "latency_p50_ms" -> Stats.median(fixedLat),
      "throughput_per_s" -> capacity,
      "quality" -> topOne,
      "blocking_recall" -> blockingRecall)
    val report = Seq(
      ("setup_s", setupS, "s (median of 3 set-ups)"),
      ("serve_qps", qps, s"req/s (highest ladder rate with p99 <= $LimitMs ms and no backlog; 0 when none)"),
      ("serve_capacity_qps", capacity, s"req/s (one handler at its median service time, ${FixedRate.toInt} req/s)"),
      ("serve_p50_ms", Stats.median(fixedLat), s"ms (at ${FixedRate.toInt} req/s, ${fixed.size} requests)"),
      ("serve_p99_ms", tail, s"ms ($tailLabel at ${FixedRate.toInt} req/s, ${fixed.size} requests)"),
      ("serve_f1", prf.f1, s"ratio ($prf, ${emitted.size} emitted over ${records.size} records, ${truth.size} true matches)"),
      ("serve_top1", topOne, "ratio (true matches whose record's best-scored candidate is the true A record)"),
      ("serve_blocking_recall", blockingRecall, s"ratio (true matches among the $K candidates)")) ++
      ladderRuns.map { case (rate, reqs, ok) =>
        val lat = reqs.map(_.latencyMs)
        (f"ladder_${rate.toInt}%d", Stats.quantile(lat, 0.99),
          s"ms p99 (p50 ${Bench.fmtNum(Stats.median(lat))} ms, p90 ${Bench.fmtNum(Stats.quantile(lat, 0.9))} ms, " +
            s"p95 ${Bench.fmtNum(Stats.quantile(lat, 0.95))} ms, p98 ${Bench.fmtNum(Stats.quantile(lat, 0.98))} ms, handler p99 " +
            s"${Bench.fmtNum(Stats.quantile(reqs.map(r => (r.end - r.start) / 1e6), 0.99))} ms, " +
            s"generator lag p99 ${Bench.fmtNum(Stats.quantile(reqs.map(r => (r.enq - r.due) / 1e6), 0.99))} ms, " +
            s"${reqs.size} requests, ${if (ok) "pass" else "fail"})")
      }

    val layers =
      if (!ctx.tracer.enabled) Map.empty[String, Double]
      else {
        val spans = ctx.tracer.recorded
        def med(n: String) = Tracer.medianSeconds(spans, n)
        val nTuples = reprs.size
        val nTrain  = ds.train.count().toInt
        Map(
          "data.generate_s" -> med("data.generate"),
          "ir.compute_s" -> med("ir.compute"),
          "ir.query_us" -> med("ir.query") * 1e6,
          "core.vae.train_s" -> med("core.vae.train"),
          "core.vae.samples_per_s" -> nTuples.toDouble * ds.arity * cfg.vaeEpochs / med("core.vae.train"),
          "core.encode.tuples_per_s" -> nTuples / med("core.encode"),
          "core.encode.query_us" -> med("core.encode.query") * 1e6,
          "core.matcher.train_s" -> med("core.matcher.train"),
          "core.matcher.examples_per_s" -> Bench.matcherExamples(cfg, nTrain) / med("core.matcher.train"),
          "core.predict.pairs_per_s" -> K / med("core.predict.query"),
          "er.knn.query_us" -> med("er.knn.query") * 1e6,
          "serve.gen_lag_ms" -> Stats.quantile(fixed.map(r => (r.enq - r.due) / 1e6), 0.99),
          "serve.queue_wait_ms" -> Stats.quantile(fixed.map(r => (r.start - r.enq) / 1e6), 0.99),
          "serve.p99_ms" -> tail,
          "serve.ladder_qps" -> qps)
      }
    Outcome(e2e, report, layers)
  }

  /** Per-query answers equal one batched top-K over the bulk-encoded B side
    * followed by one batched Siamese pass over every candidate pair.
    */
  private def checkBatched(ctx: Ctx, warm: IndexedSeq[Answer], matcher: Siamese, irs: IrSet,
                           reprs: Map[(String, Long), repro.core.TupleRepr],
                           index: IndexedSeq[(Long, Array[Double])]): Unit = {
    val nbrs  = Knn.topK(warm.map(a => a.bid -> reprs(("B", a.bid)).muFlat), index, K)
    val pairs = warm.flatMap(a => nbrs(a.bid).map(c => (c._1, a.bid)))
    val probs = matcher.predict(pairs.map { case (ia, ib) => PairExample(irs("A", ia), irs("B", ib), 0) })
    val offsets = warm.scanLeft(0)((o, a) => o + nbrs(a.bid).size)
    ctx.checks.check("per-query answers equal one batched Knn.topK and Siamese.predict pass") {
      warm.indices.forall { i =>
        val a = warm(i)
        nbrs(a.bid).map(_._1) == a.cands &&
          a.probs.indices.forall(j => math.abs(probs(offsets(i) + j) - a.probs(j)) <= 1e-9)
      }
    }
  }
}
