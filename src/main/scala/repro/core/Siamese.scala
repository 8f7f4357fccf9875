package repro.core

import repro.nn._

/** One training/inference example for the matcher: the per-attribute IRs of
  * the two tuples plus a 0/1 label (label ignored at inference).
  *
  * Examples may share IR arrays, and [[Siamese.predict]] keeps the encoding
  * of each array it sees. An array may be overwritten in place between
  * calls, which re-encodes it, but not while a call that reads it runs.
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
  import Siamese.{Encoded, Memo}

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

  /** The rows [[predict]] has encoded under the weights copied in `weights`. Guarded by `this`. */
  private var memo = new Memo(Seq.empty)

  /** Inference: match probability for each pair, without a tape.
    *
    * Each encoder output row depends only on its input row, so the matcher
    * keeps the (μ, σ) rows it has encoded, by IR array, and encodes only the
    * arrays it has not seen, in one stacked pass. A kept row is reused only
    * while the encoder weights equal the ones it was encoded under and the
    * array still holds the contents it was encoded from; either check failing
    * means re-encoding, so a reused row is bit-identical to a fresh one. An
    * entry is dropped when its array is garbage-collected.
    *
    * Safe to call from several threads at once. Weights may be changed in
    * place (training, `restore`) and IR arrays overwritten between calls, but
    * not during one.
    */
  def predict(pairs: IndexedSeq[PairExample]): Array[Double] = {
    if (pairs.isEmpty) return Array.empty
    requireArity(pairs)
    val fresh = scala.collection.mutable.ArrayBuffer.empty[Encoded]
    val call  = new AnyRef
    // The memo's entry for `ir` if this call may use it, else a new entry queued for encoding.
    def entry(ir: Array[Double]): Encoded = {
      val e = memo.rows.get(ir)
      if (e != null && ((e.checkedBy eq call) || (e.mu != null && java.util.Arrays.equals(e.ir, ir)))) {
        e.checkedBy = call; e
      } else { val f = new Encoded(ir.clone, call); memo.rows.put(ir, f); fresh += f; f }
    }
    // Entry of each (pair, attribute), pair-major.
    def entries(side: PairExample => Array[Array[Double]]): Array[Encoded] =
      Array.tabulate(pairs.length * arity)(r => entry(side(pairs(r / arity))(r % arity)))
    val (sRows, tRows) = synchronized {
      val weights = encoder.params.map(_.value.data)
      if (!memo.weights.corresponds(weights)(java.util.Arrays.equals(_, _)))
        memo = new Memo(weights.map(_.clone))
      (entries(_.sIrs), entries(_.tIrs))
    }
    if (fresh.nonEmpty) {
      val (mu, sigma) = encoder.infer(Mat.fromRows(fresh.map(_.ir).toSeq))
      synchronized(fresh.indices.foreach { i => fresh(i).mu = mu.row(i); fresh(i).sigma = sigma.row(i) })
    }
    // (pair, attribute) r fills latent-wide block r of the pair-major features.
    val l     = cfg.latent
    val feats = Mat.zeros(pairs.length, arity * l)
    var r = 0
    while (r < sRows.length) {
      val s = sRows(r); val u = tRows(r)
      var j = 0
      while (j < l) {
        val dm = s.mu(j) - u.mu(j); val ds = s.sigma(j) - u.sigma(j)
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

  /** One IR array's encoder output, valid while the array holds `ir`. (μ, σ)
    * stay null until the predict call that created the entry has encoded it;
    * until then only that call may use it. `checkedBy` is the last call that
    * created the entry or found the array's contents equal to `ir`: within
    * one call the contents do not change, so that call need not compare them
    * again.
    */
  private final class Encoded(val ir: Array[Double], var checkedBy: AnyRef) {
    var mu: Array[Double]    = _
    var sigma: Array[Double] = _
  }

  /** Encoded rows by IR array. Arrays hash by identity, and the map holds them
    * weakly, so an entry dies with its array.
    */
  private final class Memo(val weights: Seq[Array[Double]]) {
    val rows = new java.util.WeakHashMap[Array[Double], Encoded]
  }

  /** Figure 1, step 2: a matcher initialized from `vae`'s encoder, then trained on `examples`. */
  def fit(cfg: VaerConfig, arity: Int, vae: VaeModel, examples: IndexedSeq[PairExample], rng: Rng): Siamese = {
    val m = new Siamese(cfg, arity, rng.split())
    m.initFromVae(vae)
    m.train(examples, rng.split())
    m
  }
}
