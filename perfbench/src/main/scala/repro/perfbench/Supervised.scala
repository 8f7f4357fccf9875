package repro.perfbench

import repro.Oracle
import repro.core.{Represent, Vaer, VaerConfig}
import repro.data.ErSynth
import repro.er.{LabeledPair, Metrics, Prf, TopKEval}
import repro.ir.LsaIr
import org.apache.spark.sql.functions._

/** supervised-cit2: batch resolution with full labels.
  *
  * One job is the path a user waits for: LSA IRs, VAE training, encoding,
  * top-K blocking evaluation, matcher training on the train split and
  * matcher evaluation on the test split. Jobs repeat on the same inputs and
  * seeds while another one fits in the run's seconds, so every job must give
  * the same scores. Set-up is dataset generation and collecting the splits.
  */
object Supervised {

  /** Cit. 2 at a sixth of the Table II stand-in's cardinalities and split
    * sizes (250 x 750 tuples, 666 train and 216 test pairs): the largest
    * clean domain, shrunk so that one job fits a run.
    */
  val spec: ErSynth.DomainSpec = {
    val sp = ErSynth.spec("Cit. 2")
    sp.copy(cardA = sp.cardA / 6, cardB = sp.cardB / 6, nDup = sp.nDup / 6,
      trainSize = sp.trainSize / 6, testSize = sp.testSize / 6)
  }

  final case class Job(seconds: Double, blocking: Prf, matching: Prf)

  def run(ctx: Ctx): Outcome = {
    val cfg   = ctx.config(VaerConfig())
    val smoke = ctx.args.smoke
    val ((ds, train, test), setupS) = ctx.setup(3) { i =>
      ctx.span("data.generate", s"setup-$i") {
        val ds = if (smoke) ErSynth.generateTiny(ctx.spark, "Cit. 2", ctx.seed)
                 else ErSynth.generate(ctx.spark, spec, ctx.seed)
        (ds, Vaer.collectPairs(ds.train), Vaer.collectPairs(ds.test))
      }
    }
    val nTuples = ds.a.count() + ds.b.count()

    var lastMatcher: repro.core.Siamese = null
    var irsOfLast: repro.ir.IrSet = null
    val done = ctx.repeat { j =>
      val r = s"job-$j"
      ctx.span("bench.job", r) {
        val irs      = ctx.span("ir.compute", r)(new LsaIr(cfg.irDim).compute(ds)(ctx.spark))
        val vae      = ctx.span("core.vae.train", r)(Vaer.trainVae(irs, cfg, seed = ctx.derive(1)))
        val reprs    = ctx.span("core.encode", r)(Represent.encodeAll(vae, irs))
        val blocking = ctx.span("er.topk_eval", r)(TopKEval.evaluate(reprs, test, cfg.topK, rerankW2 = true))
        val matcher  = ctx.span("core.matcher.train", r)(Vaer.trainMatcher(vae, irs, train, cfg, seed = ctx.derive(2)))
        val matching = ctx.span("core.evaluate", r)(Vaer.evaluateMatcher(matcher, irs, test))
        lastMatcher = matcher; irsOfLast = irs
        (blocking, matching)
      }
    }.map { case ((blocking, matching), s) => Job(s, blocking, matching) }
    ctx.checks.ops(done.size, 0)

    ctx.phase("check")
    val first = done.head
    ctx.checks.check("every job gives the same blocking and matching scores") {
      done.forall(j => j.blocking == first.blocking && j.matching == first.matching)
    }
    checkF1(ctx, ds.test, test, lastMatcher, irsOfLast, first.matching)

    val jobMs = done.map(_.seconds * 1e3)
    val (tail, tailLabel) = Stats.tail(jobMs)
    val medianS = Stats.median(done.map(_.seconds))
    val e2e = Map(
      "setup_s" -> setupS,
      "latency_p50_ms" -> Stats.median(jobMs),
      "throughput_per_s" -> nTuples / medianS,
      "quality" -> first.matching.f1,
      "blocking_recall" -> first.blocking.r)
    val report = Seq(
      ("setup_s", setupS, "s (median of 3 set-ups)"),
      ("supervised_s", medianS, s"s (median of ${done.size} jobs; $tailLabel ${Bench.fmtNum(tail / 1e3)} s)"),
      ("supervised_f1", first.matching.f1, s"ratio (${first.matching}, ${test.size} test pairs)"),
      ("blocking_recall", first.blocking.r, s"ratio (latent recall@${cfg.topK} of test positives)"),
      ("tuples_per_s", nTuples / medianS, s"1/s ($nTuples tuples per job)"))
    Outcome(e2e, report, if (ctx.tracer.enabled) layers(ctx, cfg, train.size, test.size, nTuples, ds.arity) else Map.empty)
  }

  /** The F1 of the driver-side scorer agrees with the DataFrame scorer, whose
    * counts agree with DuckDB over the same tables.
    */
  private def checkF1(ctx: Ctx, testDf: org.apache.spark.sql.DataFrame, test: Seq[LabeledPair],
                      matcher: repro.core.Siamese, irs: repro.ir.IrSet, reported: Prf): Unit = {
    val spark = ctx.spark
    import spark.implicits._
    val probs     = matcher.predict(Vaer.toExamples(irs, test))
    val predicted = test.zip(probs).collect { case (p, pr) if pr > 0.5 => (p.idA, p.idB) }
    val local     = Metrics.prfLocal(test, predicted.toSet)
    ctx.checks.check("prfLocal over fresh predictions equals the reported F1")(local == reported)
    val predDf = predicted.toDF("idA", "idB")
    ctx.checks.check("Metrics.prf (DataFrame) F1 equals Metrics.prfLocal F1") {
      math.abs(Metrics.prf(testDf, predDf).f1 - local.f1) < 1e-12
    }
    val counts = testDf.join(predDf.withColumn("pred", lit(1)), Seq("idA", "idB"), "left")
      .agg(
        sum(when(col("label") === 1 && col("pred").isNotNull, 1).otherwise(0)) as "tp",
        sum(when(col("label") === 0 && col("pred").isNotNull, 1).otherwise(0)) as "fp",
        sum(when(col("label") === 1 && col("pred").isNull, 1).otherwise(0)) as "fn")
    ctx.checks.check("DataFrame tp/fp/fn equal DuckDB's") {
      Oracle.assertEquivalent(counts,
        """SELECT
          |  SUM(CASE WHEN t.label = '1' AND p.idA IS NOT NULL THEN 1 ELSE 0 END) AS tp,
          |  SUM(CASE WHEN t.label = '0' AND p.idA IS NOT NULL THEN 1 ELSE 0 END) AS fp,
          |  SUM(CASE WHEN t.label = '1' AND p.idA IS NULL THEN 1 ELSE 0 END) AS fn
          |FROM test t LEFT JOIN pred p ON t.idA = p.idA AND t.idB = p.idB""".stripMargin,
        "test" -> testDf, "pred" -> predDf)
      true
    }
    ctx.checks.check("F1 from the DataFrame counts equals the reported F1") {
      val r = counts.collect()(0)
      math.abs(Metrics.fromCounts(r.getLong(0), r.getLong(1), r.getLong(2)).f1 - reported.f1) < 1e-12
    }
  }

  private def layers(ctx: Ctx, cfg: VaerConfig, nTrain: Int, nTest: Int, nTuples: Long,
                     arity: Int): Map[String, Double] = {
    val spans = ctx.tracer.recorded
    def med(n: String) = Tracer.medianSeconds(spans, n)
    Map(
      "data.generate_s" -> med("data.generate"),
      "ir.compute_s" -> med("ir.compute"),
      "core.vae.train_s" -> med("core.vae.train"),
      "core.vae.samples_per_s" -> nTuples * arity * cfg.vaeEpochs / med("core.vae.train"),
      "core.encode.tuples_per_s" -> nTuples / med("core.encode"),
      "core.matcher.train_s" -> med("core.matcher.train"),
      "core.matcher.examples_per_s" -> Bench.matcherExamples(cfg, nTrain) / med("core.matcher.train"),
      "core.predict.pairs_per_s" -> nTest / med("core.evaluate"),
      "er.topk_eval_s" -> med("er.topk_eval"))
  }
}
