package repro.baselines

import repro.nn._

/** DeepMatcher hybrid analogue (Mudgal et al., SIGMOD'18).
  *
  * Per attribute, decomposable soft-attention alignment between the two
  * token sequences (the core of DM's attention-based summarization): raw
  * scores S Tᵀ/√d, softmax alignment in both directions, a shared comparison
  * network over `[token ; aligned-context]`, mean aggregation, then a dense
  * classifier over the concatenated per-attribute summaries. End-to-end
  * trained including embeddings — the most expensive baseline, as in the
  * paper's Table VI.
  */
final class DeepMatcherM(corpus: TokenCorpus, arity: Int, rng: Rng,
                         dim: Int = 64, override val epochs: Int = 15)
    extends BaselineMatcher {
  val name = "DM"

  private val emb     = corpus.pretrainedEmbedding(dim, rng, "dm.emb")
  private val compare = new Dense(2 * dim, dim, rng, "relu", "dm.cmp")
  // DM's hybrid model aggregates the compared vectors with a recurrent
  // summarizer, not a plain mean — this is also what makes it the most
  // expensive baseline, as in the paper's Table VI.
  private val agg = new Rnn(dim, rng, "dm.agg")
  private val classifier = new Mlp(Seq(arity * 2 * dim, 32, 1), Seq("relu", "linear"), rng, "dm.cls")
  private val invSqrtD = 1.0 / math.sqrt(dim)

  protected def allParams: Seq[Param] =
    emb.params ++ compare.params ++ agg.params ++ classifier.params

  /** One direction of the decomposable attention: summarize `a` against `b`. */
  private def summarize(t: Tape, a: Node, b: Node): Node = {
    val scores  = t.scale(t.matmulT(a, b), invSqrtD)
    val aligned = t.matmul(t.softmaxRows(scores), b)
    agg(t, compare(t, t.concatCols(Seq(a, aligned))))
  }

  protected def forwardLogit(t: Tape, ex: TokenPair): Node = {
    val feats = (0 until arity).map { ai =>
      val s = emb(t, ex.s(ai))
      val u = emb(t, ex.t(ai))
      t.concatCols(Seq(summarize(t, s, u), summarize(t, u, s)))
    }
    classifier(t, t.concatCols(feats))
  }
}
