package repro.baselines

import repro.nn._

/** DeepER analogue (Ebraheem et al., PVLDB'18).
  *
  * Tuple embedding: trainable token embeddings (initialized from the frozen
  * hashed vectors, the pre-trained-embedding analogue) composed per attribute
  * by a simple recurrent network (DeepER's LSTM variant, reduced to a vanilla
  * RNN cell), then per-attribute similarity features
  * `[(vs−vt)², vs∘vt]` feed a dense classifier. Everything — including the
  * embedding table — is trained end-to-end, which is what makes this family
  * orders of magnitude more expensive to train than VAER's matcher.
  */
final class DeepEr(corpus: TokenCorpus, arity: Int, rng: Rng,
                   dim: Int = 64, override val epochs: Int = 15,
                   override val earlyStopLoss: Double = 0.0)
    extends BaselineMatcher {
  val name = "DeepER"

  private val emb  = corpus.pretrainedEmbedding(dim, rng, "der.emb")
  private val wIn  = new Param("der.rnn.w", Mat.randn(dim, dim, rng, math.sqrt(1.0 / dim)))
  private val wRec = new Param("der.rnn.u", Mat.randn(dim, dim, rng, math.sqrt(1.0 / dim)))
  private val bRec = new Param("der.rnn.b", Mat.zeros(1, dim))
  private val classifier = new Mlp(Seq(arity * 2 * dim, 32, 1), Seq("relu", "linear"), rng, "der.cls")

  protected def allParams: Seq[Param] =
    emb.params ++ Seq(wIn, wRec, bRec) ++ classifier.params

  /** RNN composition h_t = tanh(x_t W + h_{t-1} U + b); returns final state. */
  private def compose(t: Tape, toks: Array[Int]): Node = {
    val x = emb(t, toks)
    var h = t.const(Mat.zeros(1, dim))
    var i = 0
    while (i < toks.length) {
      val xi = t.sliceRows(x, i, i + 1)
      h = t.tanh(t.add(t.add(t.matmul(xi, t.param(wIn)), t.matmul(h, t.param(wRec))), t.param(bRec)))
      i += 1
    }
    h
  }

  protected def forwardLogit(t: Tape, ex: TokenPair): Node = {
    val feats = (0 until arity).map { ai =>
      val vs = compose(t, ex.s(ai))
      val vt = compose(t, ex.t(ai))
      t.concatCols(Seq(t.square(t.sub(vs, vt)), t.mul(vs, vt)))
    }
    classifier(t, t.concatCols(feats))
  }
}
