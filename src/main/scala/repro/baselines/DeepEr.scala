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
                   dim: Int = 64, override val epochs: Int = 15)
    extends BaselineMatcher {
  val name = "DeepER"

  private val emb  = corpus.pretrainedEmbedding(dim, rng, "der.emb")
  private val rnn  = new Rnn(dim, rng, "der.rnn")
  private val classifier = new Mlp(Seq(arity * 2 * dim, 32, 1), Seq("relu", "linear"), rng, "der.cls")

  protected def allParams: Seq[Param] =
    emb.params ++ rnn.params ++ classifier.params

  protected def forwardLogit(t: Tape, ex: TokenPair): Node = {
    val feats = (0 until arity).map { ai =>
      val vs = rnn(t, emb(t, ex.s(ai)))
      val vt = rnn(t, emb(t, ex.t(ai)))
      t.concatCols(Seq(t.square(t.sub(vs, vt)), t.mul(vs, vt)))
    }
    classifier(t, t.concatCols(feats))
  }
}
