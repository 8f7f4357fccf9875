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
    *
    * The encoder is shared across attributes and towers, so all 2·arity
    * attribute batches go through it as one stacked matrix — rows s₀ … s₍ₐ₋₁₎
    * then t₀ … t₍ₐ₋₁₎ — and each encoder output row depends only on its input
    * row.
    */
  def forward(t: Tape, sBatches: IndexedSeq[Mat], tBatches: IndexedSeq[Mat]): (Node, IndexedSeq[Node]) = {
    val b = sBatches.head.rows
    val (mu, lv) = encoder(t, t.const(Mat.concatRows(sBatches ++ tBatches)))
    val sigma = encoder.sigma(t, lv)
    def side(n: Node, first: Int): Node = t.sliceRows(n, first * b, (first + arity) * b)
    // (μs−μt)² + (σs−σt)² for every attribute at once: arity·B x latent
    val dist = t.add(t.square(t.sub(side(mu, 0), side(mu, arity))),
                     t.square(t.sub(side(sigma, 0), side(sigma, arity))))
    val ones = t.const(new Mat(cfg.latent, 1, Array.fill(cfg.latent)(1.0)))
    val w2   = t.matmul(dist, ones)
    val distVecs = (0 until arity).map(ai => t.sliceRows(dist, ai * b, (ai + 1) * b))
    val w2s      = (0 until arity).map(ai => t.sliceRows(w2, ai * b, (ai + 1) * b))
    val logits   = classifier(t, t.concatCols(distVecs))
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
    requireArity(pairs)
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

  /** Inference: match probability for each pair, without a tape.
    *
    * Pairs share tuples (a pool pairs each tuple with several others, a
    * query with all its candidates), so each distinct IR array is encoded
    * once, in one stacked pass, and its (μ, σ) rows are indexed per pair.
    * Safe to call from several threads on a trained matcher.
    */
  def predict(pairs: IndexedSeq[PairExample]): Array[Double] = {
    if (pairs.isEmpty) return Array.empty
    requireArity(pairs)
    val rowOf    = new java.util.IdentityHashMap[Array[Double], Integer]
    val distinct = scala.collection.mutable.ArrayBuffer.empty[Array[Double]]
    // Encoder row of each (pair, attribute), pair-major.
    def rows(side: PairExample => Array[Array[Double]]): Array[Int] =
      Array.tabulate(pairs.length * arity) { r =>
        val ir    = side(pairs(r / arity))(r % arity)
        val known = rowOf.get(ir)
        if (known != null) known.intValue
        else { rowOf.put(ir, distinct.length); distinct += ir; distinct.length - 1 }
      }
    val sRows = rows(_.sIrs); val tRows = rows(_.tIrs)
    val (mu, sigma) = encoder.infer(Mat.fromRows(distinct.toSeq))
    // (pair, attribute) r fills latent-wide block r of the pair-major features.
    val l     = cfg.latent
    val feats = Mat.zeros(pairs.length, arity * l)
    var r = 0
    while (r < sRows.length) {
      val s = sRows(r) * l; val u = tRows(r) * l
      var j = 0
      while (j < l) {
        val dm = mu.data(s + j) - mu.data(u + j); val ds = sigma.data(s + j) - sigma.data(u + j)
        feats.data(r * l + j) = dm * dm + ds * ds
        j += 1
      }
      r += 1
    }
    classifier.infer(feats).data.map(v => 1.0 / (1.0 + math.exp(-v)))
  }

  private def requireArity(pairs: IndexedSeq[PairExample]): Unit = pairs.foreach { p =>
    require(p.sIrs.length == arity && p.tIrs.length == arity,
      s"a pair has ${p.sIrs.length} and ${p.tIrs.length} attributes; the matcher was built for $arity")
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
