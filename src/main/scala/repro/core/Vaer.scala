package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.er.{ErDataset, LabeledPair, Metrics, Prf}
import repro.ir.{IrProvider, IrSet}
import repro.nn.Rng

/** End-to-end VAER pipeline glue (Figure 1): IR generation → unsupervised
  * representation learning → supervised Siamese matching → evaluation.
  */
object Vaer {

  /** Collect labeled pairs from a train/test split DataFrame. */
  def collectPairs(df: DataFrame): Seq[LabeledPair] =
    df.collect().toSeq.map(r => LabeledPair(r.getLong(0), r.getLong(1), r.getInt(2)))

  /** Step 1 of Figure 1: train the representation VAE on ALL attribute IRs.
    *
    * The KL term is weighted against the input energy: with L2-normalized
    * IRs the reconstruction SSE tops out at ~1 per sample while the KL sums
    * over `latent` dimensions, and an unweighted KL collapses the posterior
    * (every μ → 0, all similarity structure lost). Balancing by
    * `0.5 · E[‖IR‖²] / latent` is the β that equates the two scales — the
    * standard fixed-decoder-variance reading of Eq. 2.
    */
  def trainVae(irs: IrSet, cfg: VaerConfig, seed: Long = 0x7AEL): VaeModel = {
    val rng = new Rng(seed)
    val vae = new VaeModel(cfg, rng.split())
    val samples = irs.irs.valuesIterator.flatten.toIndexedSeq
    val meanNormSq = samples.iterator.map(v => { var s = 0.0; v.foreach(x => s += x * x); s }).sum /
      math.max(1, samples.length)
    val klWeight = 0.5 * math.max(meanNormSq, 1e-6) / cfg.latent
    vae.train(samples, rng.split(), klWeight = klWeight)
    vae
  }

  def toExamples(irs: IrSet, pairs: Seq[LabeledPair]): IndexedSeq[PairExample] =
    pairs.toIndexedSeq.map(p => PairExample(irs("A", p.idA), irs("B", p.idB), p.label))

  /** Step 2 of Figure 1: Siamese matcher initialized from the VAE encoder. */
  def trainMatcher(vae: VaeModel, irs: IrSet, trainPairs: Seq[LabeledPair],
                   cfg: VaerConfig, seed: Long = 0x51AL): Siamese =
    Siamese.fit(cfg, irs.arity, vae, toExamples(irs, trainPairs), new Rng(seed))

  /** Classify labeled pairs at threshold 0.5 and score them. */
  def evaluateMatcher(matcher: Siamese, irs: IrSet, testPairs: Seq[LabeledPair]): Prf = {
    val probs = matcher.predict(toExamples(irs, testPairs))
    val predicted = testPairs.zip(probs).collect {
      case (p, prob) if prob > 0.5 => (p.idA, p.idB)
    }.toSet
    Metrics.prfLocal(testPairs, predicted)
  }

  /** Full supervised run on one dataset with a given IR provider. */
  def runSupervised(ds: ErDataset, provider: IrProvider, cfg: VaerConfig)
                   (implicit spark: SparkSession): (Prf, IrSet, VaeModel, Siamese) = {
    val irs = provider.compute(ds)
    val vae = trainVae(irs, cfg)
    val m   = trainMatcher(vae, irs, collectPairs(ds.train), cfg)
    (evaluateMatcher(m, irs, collectPairs(ds.test)), irs, vae, m)
  }
}
