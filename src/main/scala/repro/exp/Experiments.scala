package repro.exp

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core._
import repro.data.ErSynth
import repro.er.{LabeledPair, Prf, TopKEval}
import repro.ir.{IrProviders, IrSet, LsaIr}
import repro.nn.Rng

/** The evaluation harness behind every table of §VI; the `bench/` suites
  * print and assert the returned rows.
  */
object Experiments {

  /** Paper-scale config (Table III shape at our reduced IR dimensionality). */
  val DefaultCfg: VaerConfig = VaerConfig()

  private def fmt(p: Prf): String = f"${p.p}%.2f/${p.r}%.2f/${p.f1}%.2f"

  private def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a  = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  // ------------------------------------------------------------ Table II

  final case class Table2Row(domain: String, cardA: Long, cardB: Long, arity: Int,
                             train: Long, test: Long, clean: Boolean)

  def table2(spark: SparkSession, domains: Seq[String]): Seq[Table2Row] =
    domains.map { name =>
      val ds = ErSynth.generate(spark, ErSynth.spec(name))
      Table2Row(name, ds.a.count(), ds.b.count(), ds.arity,
        ds.train.count(), ds.test.count(), ds.clean)
    }

  // ------------------------------------------------------------ Table IV

  final case class Table4Row(domain: String, ir: String, irPrf: Prf, vaerPrf: Prf) {
    override def toString: String = f"$domain%-7s $ir%-6s IR ${fmt(irPrf)}  VAER ${fmt(vaerPrf)}"
  }

  /** Representation learning: IR top-K NN vs VAE-encoded top-K NN (§VI-B). */
  def table4(spark: SparkSession, domains: Seq[String], providers: Seq[String],
             cfg: VaerConfig = DefaultCfg): Seq[Table4Row] = {
    implicit val s: SparkSession = spark
    domains.flatMap { name =>
      val ds   = ErSynth.generate(spark, ErSynth.spec(name))
      val test = Vaer.collectPairs(ds.test)
      providers.map { pName =>
        val provider = IrProviders.byName(pName, cfg.irDim)
        val irs      = provider.compute(ds)
        val irPrf    = TopKEval.evaluate(Represent.irAsRepr(irs), test, cfg.topK, rerankW2 = false)
        val vae      = Vaer.trainVae(irs, cfg, seed = 0x7AE0L + name.hashCode)
        val vaerPrf  = TopKEval.evaluate(Represent.encodeAll(vae, irs), test, cfg.topK, rerankW2 = true)
        Table4Row(name, pName, irPrf, vaerPrf)
      }
    }
  }

  // ------------------------------------------------------- Tables V + VI

  final case class Table56Row(domain: String,
                              vaer: Prf, der: Prf, dm: Prf, ditto: Prf,
                              tRepr: Double, tMatch: Double,
                              tDer: Double, tDm: Double, tDitto: Double) {
    override def toString: String =
      f"$domain%-7s VAER ${fmt(vaer)} DER ${fmt(der)} DM ${fmt(dm)} DITTO ${fmt(ditto)} | " +
        f"times(s) repr=$tRepr%.1f match=$tMatch%.1f der=$tDer%.1f dm=$tDm%.1f ditto=$tDitto%.1f"
  }

  /** Supervised matching effectiveness (Table V) and training times (Table VI). */
  def table56(spark: SparkSession, domains: Seq[String],
              cfg: VaerConfig = DefaultCfg, maxLen: Int = 8): Seq[Table56Row] = {
    implicit val s: SparkSession = spark
    domains.map { name =>
      val ds    = ErSynth.generate(spark, ErSynth.spec(name))
      val train = Vaer.collectPairs(ds.train)
      val test  = Vaer.collectPairs(ds.test)

      val irs = new LsaIr(cfg.irDim).compute(ds)
      val (vae, tRepr)      = time(Vaer.trainVae(irs, cfg, seed = 0x56E0L + name.hashCode))
      val (matcher, tMatch) = time(Vaer.trainMatcher(vae, irs, train, cfg))
      val vaerPrf           = Vaer.evaluateMatcher(matcher, irs, test)

      val corpus = new TokenCorpus(ds, maxLen)
      val tokTr  = corpus.pairs(train)
      def runBaseline(mk: Rng => BaselineMatcher, seed: Long): (Prf, Double) = {
        val rng = new Rng(seed)
        val model = mk(rng.split())
        val (_, t) = time(model.trainOn(tokTr, rng.split()))
        (model.evaluate(test, corpus), t)
      }
      val (derPrf, tDer)     = runBaseline(r => new DeepEr(corpus, ds.arity, r), 0xDE0L + name.hashCode)
      val (dmPrf, tDm)       = runBaseline(r => new DeepMatcherM(corpus, ds.arity, r), 0xD30L + name.hashCode)
      val (dittoPrf, tDitto) = runBaseline(r => new Ditto(corpus, ds.arity, r), 0xD110L + name.hashCode)

      Table56Row(name, vaerPrf, derPrf, dmPrf, dittoPrf, tRepr, tMatch, tDer, tDm, tDitto)
    }
  }

  // ----------------------------------------------------------- Table VII

  final case class Table7Row(domain: String, localRecall: Double, transfRecall: Double,
                             localF1: Double, transfF1: Double) {
    override def toString: String =
      f"$domain%-7s recall@K local=$localRecall%.2f transf=$transfRecall%.2f (Δ=${transfRecall - localRecall}%+.2f)  " +
        f"matchF1 local=$localF1%.2f transf=$transfF1%.2f (Δ=${transfF1 - localF1}%+.2f)"
  }

  /** Transferability (§VI-D): representation model trained on Citations 2,
    * applied to the other domains at arity 4 (pad/truncate rule).
    */
  def table7(spark: SparkSession, domains: Seq[String],
             cfg: VaerConfig = DefaultCfg, sourceDomain: String = "Cit. 2"): Seq[Table7Row] = {
    implicit val s: SparkSession = spark
    val srcArity = ErSynth.spec(sourceDomain).arity
    val srcDs  = ErSynth.generate(spark, ErSynth.spec(sourceDomain))
    val srcIrs = new LsaIr(cfg.irDim).compute(srcDs)
    val transferredVae = Vaer.trainVae(srcIrs, cfg, seed = 0x70AEL)

    domains.filterNot(_ == sourceDomain).map { name =>
      val ds   = ErSynth.generate(spark, ErSynth.spec(name))
      val irs  = new LsaIr(cfg.irDim).compute(ds).withArity(srcArity)
      val test = Vaer.collectPairs(ds.test)
      val train = Vaer.collectPairs(ds.train)

      val localVae = Vaer.trainVae(irs, cfg, seed = 0x70CAL + name.hashCode)

      def recallOf(vae: VaeModel): Double =
        TopKEval.evaluate(Represent.encodeAll(vae, irs), test, cfg.topK, rerankW2 = true).r
      def f1Of(vae: VaeModel): Double =
        Vaer.evaluateMatcher(Vaer.trainMatcher(vae, irs, train, cfg), irs, test).f1

      Table7Row(name, recallOf(localVae), recallOf(transferredVae), f1Of(localVae), f1Of(transferredVae))
    }
  }

  // ---------------------------------------------------------- Table VIII

  final case class Table8Row(domain: String, boot: Prf, a250: Prf, full: Prf,
                             f1Pct: Double, trainPct: Double, removedSeedFp: Int) {
    override def toString: String =
      f"$domain%-7s Boot ${fmt(boot)}  A250 ${fmt(a250)}  Full ${fmt(full)}  " +
        f"F1%%=${f1Pct * 100}%.0f%% Train%%=${trainPct * 100}%.1f%% (seedFpRemoved=$removedSeedFp)"
  }

  /** Active learning (Table VIII): Bootstrap vs 250 actively-labeled samples
    * vs the full training set. The label oracle is the ground truth (the
    * paper's human labeler).
    */
  def table8(spark: SparkSession, domains: Seq[String],
             cfg: VaerConfig = DefaultCfg, budget: Int = 250): Seq[Table8Row] = {
    implicit val s: SparkSession = spark
    domains.map { name =>
      val ds    = ErSynth.generate(spark, ErSynth.spec(name))
      val train = Vaer.collectPairs(ds.train)
      val test  = Vaer.collectPairs(ds.test)
      val truth = ds.matches.collect().map(r => (r.getLong(0), r.getLong(1))).toSet
      val oracle: ((Long, Long)) => Int = p => if (truth.contains(p)) 1 else 0

      val irs   = new LsaIr(cfg.irDim).compute(ds)
      val vae   = Vaer.trainVae(irs, cfg, seed = 0x8A10L + name.hashCode)
      val reprs = Represent.encodeAll(vae, irs)
      val boot  = AlBootstrap.run(spark, reprs, cfg.topK, verifyPos = Some(truth.contains),
        lshSeed = 0x415EEDL + name.hashCode)

      def seedPairs: Seq[LabeledPair] =
        boot.pos.map(p => LabeledPair(p._1, p._2, 1)) ++ boot.neg.map(p => LabeledPair(p._1, p._2, 0))

      val bootMatcher = Vaer.trainMatcher(vae, irs, seedPairs, cfg, seed = 0x8B00L + name.hashCode)
      val bootPrf     = Vaer.evaluateMatcher(bootMatcher, irs, test)

      // AL iterations use a lighter step floor — the paper's point is that
      // the matcher retrains in seconds inside the loop.
      val alCfg = cfg.copy(matchMinSteps = 300, kdeSamplesPerPair = 50)
      val al    = ActiveLearner.run(alCfg, vae, irs, reprs, boot, oracle, budget,
        seed = 0x8AL + name.hashCode)
      val a250Prf = Vaer.evaluateMatcher(al.matcher, irs, test)

      val fullMatcher = Vaer.trainMatcher(vae, irs, train, cfg, seed = 0x8F00L + name.hashCode)
      val fullPrf     = Vaer.evaluateMatcher(fullMatcher, irs, test)

      Table8Row(name, bootPrf, a250Prf, fullPrf,
        if (fullPrf.f1 == 0) 0.0 else a250Prf.f1 / fullPrf.f1,
        budget.toDouble / train.size, boot.removedFalsePositives)
    }
  }

  val AllDomains: Seq[String] = ErSynth.domains.map(_.name)
  val AllProviders: Seq[String] = Seq("LSA", "W2V", "BERT", "EmbDI")
}
