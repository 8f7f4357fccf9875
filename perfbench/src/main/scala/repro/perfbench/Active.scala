package repro.perfbench

import repro.core.{ActiveLearner, AlBootstrap, PairExample, Represent, Vaer, VaerConfig}
import repro.data.ErSynth
import repro.er.LabeledPair
import repro.ir.LsaIr
import repro.kde.Kde
import repro.nn.Rng

/** active-rest: labeler-in-the-loop active learning (Alg. 1 + Alg. 2).
  *
  * Set-up generates the data and trains the representation (LSA IRs, VAE,
  * encoding). A session runs the Spark LSH bootstrap and then active
  * learning to the label budget; the oracle answers from the ground truth
  * and timestamps every call, so the waits between label batches are what a
  * labeler would see.
  *
  * The domain is Rest. at its Table II stand-in size (533 x 331 tuples,
  * arity 6). At the budget a run affords, the session's F1 on the noisy Beer
  * domain ranged from 0.26 to 0.65 across seeds, too wide for any regression
  * bound; on Rest. it stays within a few hundredths while still short of
  * the full-training F1, so a change that picks worse pairs still shows.
  */
object Active {

  val Domain = "Rest."

  /** Labels per session: five batches of Alg. 2 at eight labels a batch. */
  val Budget = 40

  /** Oracle calls further apart than this belong to different batches; between
    * batches the matcher retrains for hundreds of optimizer steps.
    */
  private val BatchGapNanos = 50L * 1000 * 1000

  final case class Session(seconds: Double, firstLabelS: Double, gapsS: Seq[Double], batches: Int,
                           labels: Int, result: ActiveLearner.AlResult, boot: AlBootstrap.Bootstrap,
                           asked: Seq[((Long, Long), Int)])

  def run(ctx: Ctx): Outcome = {
    // half the VAE epochs of the default configuration keeps three set-ups within a run
    val cfg    = ctx.config(VaerConfig(vaeEpochs = 6))
    // Table VIII's AL configuration
    val alCfg  = cfg.copy(matchMinSteps = 300, kdeSamplesPerPair = 50)
    val smoke  = ctx.args.smoke
    val budget = if (smoke) 16 else Budget
    val ((ds, truth, test, irs, vae, reprs), setupS) = ctx.setup(3) { i =>
      val r = s"setup-$i"
      val (ds, truth, test) = ctx.span("data.generate", r) {
        val ds = if (smoke) ErSynth.generateTiny(ctx.spark, Domain, ctx.seed)
                 else ErSynth.generate(ctx.spark, ErSynth.spec(Domain), ctx.seed)
        (ds, ds.matches.collect().map(m => (m.getLong(0), m.getLong(1))).toSet, Vaer.collectPairs(ds.test))
      }
      val irs   = ctx.span("ir.compute", r)(new LsaIr(cfg.irDim).compute(ds)(ctx.spark))
      val vae   = ctx.span("core.vae.train", r)(Vaer.trainVae(irs, cfg, seed = ctx.derive(1)))
      val reprs = ctx.span("core.encode", r)(Represent.encodeAll(vae, irs))
      (ds, truth, test, irs, vae, reprs)
    }

    val done = ctx.repeat { s =>
      val r     = s"session-$s"
      val calls = Vector.newBuilder[Long]
      val asked = Vector.newBuilder[((Long, Long), Int)]
      val oracle: ((Long, Long)) => Int = { p =>
        calls += System.nanoTime()
        val label = if (truth.contains(p)) 1 else 0
        asked += (p -> label)
        label
      }
      val start = System.nanoTime()
      val (boot, al) = ctx.span("bench.session", r) {
        val boot = ctx.span("core.bootstrap", r)(AlBootstrap.run(ctx.spark, reprs, cfg.topK,
          verifyPos = Some(truth.contains), lshSeed = ctx.derive(3)))
        (boot, ctx.span("core.al.run", r)(ActiveLearner.run(alCfg, vae, irs, reprs, boot, oracle, budget,
          seed = ctx.derive(4))))
      }
      val end = System.nanoTime()
      val ts  = calls.result()
      // batch starts: the first call, and every call after a long gap
      val starts = ts.indices.filter(i => i == 0 || ts(i) - ts(i - 1) > BatchGapNanos)
      Session((end - start) / 1e9,
        firstLabelS = ts.headOption.map(t => (t - start) / 1e9).getOrElse((end - start) / 1e9),
        gapsS = starts.drop(1).map(i => (ts(i) - ts(i - 1)) / 1e9),
        batches = starts.size, labels = ts.size, result = al, boot = boot, asked = asked.result())
    }.map(_._1)
    ctx.checks.ops(done.map(_.labels.toLong).sum, 0)

    ctx.phase("check")
    val seeded = { val b = done.head.boot; (b.pos ++ b.neg).toSet }
    done.foreach { ss =>
      ctx.checks.check(s"labels used (${ss.result.labelsUsed}) and oracle calls (${ss.labels}) equal the budget $budget") {
        ss.result.labelsUsed == budget && ss.labels == budget
      }
      ctx.checks.check("every labeled pair agrees with the ground truth") {
        ss.asked.forall { case (p, l) => (l == 1) == truth.contains(p) } &&
          ss.result.labeledPos.filterNot(seeded).forall(truth.contains) &&
          ss.result.labeledNeg.filterNot(seeded).forall(p => !truth.contains(p)) &&
          ss.result.labeledPos.size + ss.result.labeledNeg.size == seeded.size + budget
      }
    }
    val f1s = done.map(ss => ctx.span("core.evaluate", "check")(Vaer.evaluateMatcher(ss.result.matcher, irs, test)))
    ctx.checks.check("every session gives the same labels and F1") {
      done.forall(ss => ss.asked == done.head.asked) && f1s.forall(_ == f1s.head)
    }

    val first = done.head
    val boot  = first.boot
    val pool  = (boot.pos ++ boot.neg ++ boot.unlabeled).toSet
    val poolRecall = truth.count(pool.contains).toDouble / math.max(1, truth.size)
    val waitsMs = done.flatMap(ss => (ss.firstLabelS +: ss.gapsS).map(_ * 1e3))
    val gaps    = done.flatMap(_.gapsS)
    val (tail, tailLabel) = Stats.tail(waitsMs)
    val sessionS = Stats.median(done.map(_.seconds))
    val firstLabelS = Stats.median(done.map(_.firstLabelS))
    val e2e = Map(
      "setup_s" -> setupS,
      "latency_p50_ms" -> (if (gaps.isEmpty) firstLabelS else Stats.median(gaps)) * 1e3,
      "throughput_per_s" -> budget / sessionS,
      "quality" -> f1s.head.f1,
      "blocking_recall" -> poolRecall)
    val report = Seq(
      ("setup_s", setupS, "s (median of 3 set-ups)"),
      ("first_label_s", firstLabelS, s"s (bootstrap start to first oracle call, ${done.size} sessions)"),
      ("label_wait_p50_s", if (gaps.isEmpty) 0.0 else Stats.median(gaps),
        s"s (between label batches, ${gaps.size} samples; all waits $tailLabel ${Bench.fmtNum(tail / 1e3)} s)"),
      ("al_f1", f1s.head.f1, s"ratio (${f1s.head} after $budget labels, ${test.size} test pairs)"),
      ("labels_per_s", budget / sessionS, s"1/s (session ${Bench.fmtNum(sessionS)} s)"),
      ("pool_recall", poolRecall, s"ratio (true matches in seeds and pool, ${pool.size} pairs)"),
      ("labels_per_round", first.labels.toDouble / first.batches, s"count (${first.batches} batches)"))

    val layers =
      if (!ctx.tracer.enabled) Map.empty[String, Double]
      else replayLayers(ctx, alCfg, vae, irs, reprs, first) ++ Map(
        "core.al.rounds" -> first.batches.toDouble,
        "core.al.labels_per_round" -> first.labels.toDouble / first.batches,
        "lsh.pool_size" -> boot.unlabeled.size.toDouble,
        "lsh.pool_recall" -> poolRecall,
        "core.vae.samples_per_s" ->
          irs.irs.size.toDouble * irs.arity * cfg.vaeEpochs / Tracer.medianSeconds(ctx.tracer.recorded, "core.vae.train"),
        "core.encode.tuples_per_s" -> irs.irs.size / Tracer.medianSeconds(ctx.tracer.recorded, "core.encode"))
    Outcome(e2e, report, layers)
  }

  /** Replays one round at the final pool size through the public calls:
    * matcher training on every labeled pair, prediction over the remaining
    * pool, and the positive-distance KDE over the pool.
    */
  private def replayLayers(ctx: Ctx, alCfg: VaerConfig, vae: repro.core.VaeModel, irs: repro.ir.IrSet,
                           reprs: Map[(String, Long), repro.core.TupleRepr], ss: Session): Map[String, Double] = {
    val r       = "replay"
    val labeled = ss.result.labeledPos.map(p => LabeledPair(p._1, p._2, 1)) ++
      ss.result.labeledNeg.map(p => LabeledPair(p._1, p._2, 0))
    val left    = { val l = labeled.map(p => (p.idA, p.idB)).toSet; ss.boot.unlabeled.filterNot(l) }
    val (m, retrainS) = ctx.timed(ctx.span("core.matcher.train", r)(Vaer.trainMatcher(vae, irs, labeled, alCfg, seed = ctx.derive(5))))
    val examples = left.map(p => PairExample(irs("A", p._1), irs("B", p._2), 0)).toIndexedSeq
    val (_, predictS) = ctx.timed(ctx.span("core.predict", r)(m.predict(examples)))
    val sample = ActiveLearner.positiveDistances(reprs, ss.result.labeledPos, alCfg.kdeSamplesPerPair, new Rng(ctx.derive(6)))
    val dists  = left.map(p => ActiveLearner.muDistance(reprs, p)).toArray
    val kde    = new Kde(sample)
    val (_, kdeS) = ctx.timed(ctx.span("kde.density", r) {
      var acc = 0.0; var i = 0
      while (i < dists.length) { acc += kde.density(dists(i)); i += 1 }
      acc
    })
    val spans   = ctx.tracer.recorded
    Map(
      "data.generate_s" -> Tracer.medianSeconds(spans, "data.generate"),
      "ir.compute_s" -> Tracer.medianSeconds(spans, "ir.compute"),
      "core.vae.train_s" -> Tracer.medianSeconds(spans, "core.vae.train"),
      "core.bootstrap_s" -> Tracer.medianSeconds(spans, "core.bootstrap"),
      "core.al.replay_retrain_s" -> retrainS,
      "core.al.replay_predict_s" -> predictS,
      "core.matcher.train_s" -> retrainS,
      "core.matcher.examples_per_s" -> Bench.matcherExamples(alCfg, labeled.size) / retrainS,
      "core.predict.pairs_per_s" -> examples.size / predictS,
      "kde.replay_density_evals_per_s" -> dists.length / kdeS)
  }
}
