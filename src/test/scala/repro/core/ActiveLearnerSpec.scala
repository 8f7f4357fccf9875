package repro.core

import repro.SparkSpec
import repro.data.ErSynth
import repro.ir.W2vIr
import repro.nn.Rng

class ActiveLearnerSpec extends SparkSpec {
  private implicit def s: org.apache.spark.sql.SparkSession = spark

  private val cfg = VaerConfig(irDim = 16, hidden = 16, latent = 8,
    vaeEpochs = 8, matchEpochs = 12, kdeSamplesPerPair = 30)

  private lazy val ds    = ErSynth.generateTiny(spark, "Rest.")
  private lazy val irs   = new W2vIr(16).compute(ds)
  private lazy val vae   = Vaer.trainVae(irs, cfg)
  private lazy val reprs = Represent.encodeAll(vae, irs)
  private lazy val truth = ds.matches.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
  private lazy val oracle: ((Long, Long)) => Int = p => if (truth.contains(p)) 1 else 0
  private lazy val boot  = AlBootstrap.run(spark, reprs, k = 5, verifyPos = Some(truth.contains))

  test("entropy peaks at 0.5 and vanishes at the extremes") {
    assert(ActiveLearner.entropy(0.5) > ActiveLearner.entropy(0.9))
    assert(ActiveLearner.entropy(0.5) > ActiveLearner.entropy(0.1))
    assert(ActiveLearner.entropy(0.999999) < 1e-4)
    assert(math.abs(ActiveLearner.entropy(0.5) - math.log(2)) < 1e-9)
  }

  test("positiveDistances samples the requested volume") {
    val pos = boot.pos.take(3)
    val d = ActiveLearner.positiveDistances(reprs, pos, 10, new Rng(1))
    assert(d.length == pos.size * 10)
    assert(d.forall(x => x >= 0 && !x.isNaN))
  }

  test("sampled distances for a pair vary around the mu distance") {
    val pos = boot.pos.take(1)
    val d = ActiveLearner.positiveDistances(reprs, pos, 200, new Rng(2))
    val muD = ActiveLearner.muDistance(reprs, pos.head)
    val mean = d.sum / d.length
    // z-sampling adds sigma noise, so the mean exceeds the mu distance but stays on its scale
    assert(mean >= muD * 0.5 && mean < muD + 20.0, s"mean=$mean muD=$muD")
    assert(d.distinct.length > 100, "sampling should be stochastic")
  }

  test("AL consumes exactly the label budget") {
    val res = ActiveLearner.run(cfg, vae, irs, reprs, boot, oracle, labelBudget = 20)
    assert(res.labelsUsed == 20)
    assert(res.labeledPos.size + res.labeledNeg.size == boot.pos.size + boot.neg.size + 20)
  }

  test("actively trained matcher beats the bootstrap matcher") {
    val test = Vaer.collectPairs(ds.test)
    val bootMatcher = {
      val rng = new Rng(9)
      val m = new Siamese(cfg, irs.arity, rng.split())
      m.initFromVae(vae)
      m.train(Vaer.toExamples(irs,
        boot.pos.map(p => repro.er.LabeledPair(p._1, p._2, 1)) ++
        boot.neg.map(p => repro.er.LabeledPair(p._1, p._2, 0))), rng.split())
      m
    }
    val bootF1 = Vaer.evaluateMatcher(bootMatcher, irs, test).f1
    val res = ActiveLearner.run(cfg, vae, irs, reprs, boot, oracle, labelBudget = 60)
    val alF1 = Vaer.evaluateMatcher(res.matcher, irs, test).f1
    assert(alF1 >= bootF1 - 0.05, s"AL F1 $alF1 vs bootstrap F1 $bootF1")
  }

  test("labeled pools contain only correctly-labeled pairs") {
    val res = ActiveLearner.run(cfg, vae, irs, reprs, boot, oracle, labelBudget = 20)
    // seeds from the verified bootstrap + oracle labels: all must agree with truth
    assert(res.labeledPos.forall(truth.contains))
    assert(res.labeledNeg.forall(p => !truth.contains(p)))
  }

  test("AL from seed negatives only spends its budget with every label correct") {
    val negOnly = boot.copy(pos = Seq.empty)
    assert(negOnly.neg.nonEmpty)
    val res = ActiveLearner.run(cfg, vae, irs, reprs, negOnly, oracle, labelBudget = 20)
    assert(res.labelsUsed == 20)
    assert(res.labeledPos.size + res.labeledNeg.size == negOnly.neg.size + 20)
    assert(res.labeledPos.forall(truth.contains))
    assert(res.labeledNeg.forall(p => !truth.contains(p)))
  }
}
