package repro.core

import repro.nn._

/** One training/inference example for the matcher: the per-attribute IRs of
  * the two tuples plus a 0/1 label (label ignored at inference).
  */
final case class PairExample(sIrs: Array[Array[Double]], tIrs: Array[Array[Double]], label: Int)

/** The Siamese matching model of §IV (Figure 3).
  *
  * Two weight-tied variational encoders (initialized from the trained VAE
  * encoder of [[VaeModel]]) embed both tuples; per-attribute element-wise
  * Wasserstein distance vectors `(μs−μt)² + (σs−σt)²` are concatenated and
  * classified by a two-layer MLP. Trained with the contrastive loss of
  * Eq. 4: binary cross-entropy + margin term on per-attribute W2².
  */
final class Siamese(val cfg: VaerConfig, val arity: Int, rng: Rng) extends Module {
  val encoder: VariationalEncoder = new VariationalEncoder(cfg, rng)
  val classifier: Mlp = new Mlp(
    Seq(arity * cfg.latent, cfg.matchHidden, 1), Seq("relu", "linear"), rng, "match")

  override def params: Seq[Param] = encoder.params ++ classifier.params

  /** Transfer the unsupervised encoder weights (the paper's initialization). */
  def initFromVae(vae: VaeModel): Unit = encoder.restore(vae.encoder.snapshot())

  /** Build the pair-batch graph; returns (sigmoid probabilities B x 1,
    * per-attribute scalar W2² nodes B x 1).
    */
  def forward(t: Tape, sBatches: IndexedSeq[Mat], tBatches: IndexedSeq[Mat]): (Node, IndexedSeq[Node]) = {
    val ones = t.const(new Mat(cfg.latent, 1, Array.fill(cfg.latent)(1.0)))
    def encode(x: Mat): (Node, Node) = {
      val (mu, lv) = encoder(t, t.const(x))
      (mu, encoder.sigma(t, lv))
    }
    val (distVecs, w2s) = (0 until arity).map { ai =>
      val (muS, sigS) = encode(sBatches(ai))
      val (muT, sigT) = encode(tBatches(ai))
      val dv = t.add(t.square(t.sub(muS, muT)), t.square(t.sub(sigS, sigT)))
      (dv, t.matmul(dv, ones))
    }.unzip
    val features = t.concatCols(distVecs)
    val logits   = classifier(t, features)
    (t.sigmoid(logits), w2s)
  }

  /** Eq. 4 loss over a batch; labels as 0/1 doubles. */
  def lossNode(t: Tape, prob: Node, w2s: IndexedSeq[Node], labels: Array[Double]): Node = {
    val b = labels.length
    val x    = t.const(new Mat(b, 1, labels.clone()))
    val invX = t.const(new Mat(b, 1, labels.map(1.0 - _)))
    // cross-entropy
    val ce = t.scale(
      t.add(
        t.mul(x, t.log(t.addConst(prob, 1e-7))),
        t.mul(invX, t.log(t.addConst(t.scale(prob, -1.0), 1.0 + 1e-7)))),
      -1.0)
    // contrastive margin term, averaged over attributes
    val contr = w2s.map { w2 =>
      val pos = t.mul(x, w2)
      val neg = t.mul(invX, t.relu(t.addConst(t.scale(w2, -1.0), cfg.margin)))
      t.add(pos, neg)
    }.reduce(t.add)
    t.scale(t.add(t.sumAll(ce), t.scale(t.sumAll(contr), 1.0 / arity)), 1.0 / b)
  }

  /** Train on labeled pairs; returns per-epoch mean loss.
    *
    * Epochs are floored so the optimizer takes at least `cfg.matchMinSteps`
    * steps — AL iterations train on pools of a few dozen pairs, where a
    * fixed epoch count would mean a handful of Adam updates.
    */
  def train(pairs: IndexedSeq[PairExample], rng: Rng): Seq[Double] = {
    require(pairs.nonEmpty, "no training pairs")
    val batchesPerEpoch = (pairs.length + cfg.matchBatch - 1) / cfg.matchBatch
    val epochs = math.max(cfg.matchEpochs, (cfg.matchMinSteps + batchesPerEpoch - 1) / batchesPerEpoch)
    val adam = new Adam(cfg.lr)
    Minibatch.run(pairs, cfg.matchBatch, epochs, rng) { chunk =>
      val sB = IndexedSeq.tabulate(arity)(ai => Mat.fromRows(chunk.map(_.sIrs(ai))))
      val tB = IndexedSeq.tabulate(arity)(ai => Mat.fromRows(chunk.map(_.tIrs(ai))))
      val t  = new Tape
      val (prob, w2s) = forward(t, sB, tB)
      val loss = lossNode(t, prob, w2s, chunk.map(_.label.toDouble).toArray)
      t.backward(loss)
      adam.step(params)
      loss.value.data(0)
    }
  }

  /** Inference: match probability for each pair, without a tape. */
  def predict(pairs: IndexedSeq[PairExample]): Array[Double] = {
    if (pairs.isEmpty) return Array.empty
    val feats = (0 until arity).map { ai =>
      val (muS, sigS) = encoder.infer(Mat.fromRows(pairs.map(_.sIrs(ai))))
      val (muT, sigT) = encoder.infer(Mat.fromRows(pairs.map(_.tIrs(ai))))
      val dm = muS - muT; val ds = sigS - sigT
      dm.hadamard(dm) + ds.hadamard(ds)
    }
    classifier.infer(Mat.concatCols(feats)).data.map(v => 1.0 / (1.0 + math.exp(-v)))
  }
}

object Siamese {

  /** Figure 1, step 2: a matcher initialized from `vae`'s encoder, then trained on `examples`. */
  def fit(cfg: VaerConfig, arity: Int, vae: VaeModel, examples: IndexedSeq[PairExample], rng: Rng): Siamese = {
    val m = new Siamese(cfg, arity, rng.split())
    m.initFromVae(vae)
    m.train(examples, rng.split())
    m
  }
}
