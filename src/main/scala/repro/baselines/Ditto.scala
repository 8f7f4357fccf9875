package repro.baselines

import repro.nn._

/** DITTO analogue (Li et al., PVLDB'21).
  *
  * The pair is serialized as `[CLS] [COL i] s-tokens … [SEP] [COL i]
  * t-tokens …` (DITTO's serialization scheme) and passed through one
  * self-attention transformer block + FFN with residuals; the [CLS] state
  * feeds the classifier. The embedding table is initialized from the frozen
  * hashed word vectors and stays frozen; the transformer block and the
  * classifier are fine-tuned — the BERT-fine-tuning shape at tractable size.
  */
final class Ditto(corpus: TokenCorpus, arity: Int, rng: Rng,
                  dim: Int = 64, override val epochs: Int = 12)
    extends BaselineMatcher {
  val name = "DITTO"

  private val MaxSeq = 48 // serialized pair length cap, in tokens

  // vocabulary + [CLS] + [SEP] + one [COL] marker per attribute
  private val clsId = corpus.vocabSize
  private val sepId = corpus.vocabSize + 1
  private def colId(ai: Int) = corpus.vocabSize + 2 + ai

  private val emb =
    corpus.pretrainedEmbedding(dim, rng, "ditto.emb", rows = corpus.vocabSize + 2 + arity)
  private val wq = new Param("ditto.wq", Mat.randn(dim, dim, rng, math.sqrt(1.0 / dim)))
  private val wk = new Param("ditto.wk", Mat.randn(dim, dim, rng, math.sqrt(1.0 / dim)))
  private val wv = new Param("ditto.wv", Mat.randn(dim, dim, rng, math.sqrt(1.0 / dim)))
  private val ffn1 = new Dense(dim, 2 * dim, rng, "relu", "ditto.ffn1")
  private val ffn2 = new Dense(2 * dim, dim, rng, "linear", "ditto.ffn2")
  private val classifier = new Mlp(Seq(4 * dim, 32, 1), Seq("relu", "linear"), rng, "ditto.cls")
  private val invSqrtD = 1.0 / math.sqrt(dim)

  // The "pre-trained LM" embeddings stay frozen (feature-extraction mode);
  // the transformer block and classifier are fine-tuned. With trainable
  // embeddings at this reduced scale the model memorizes token identities
  // instead of learning alignment and fails to generalize to unseen tuples.
  protected def allParams: Seq[Param] =
    Seq(wq, wk, wv) ++ ffn1.params ++ ffn2.params ++ classifier.params

  /** Serialized sequence plus the [SEP] position splitting the two tuples. */
  private def serialize(ex: TokenPair): (Array[Int], Int) = {
    val buf = Array.newBuilder[Int]
    buf += clsId
    var ai = 0
    while (ai < arity) { buf += colId(ai); ex.s(ai).foreach(buf += _); ai += 1 }
    val halfBudget = MaxSeq / 2
    val sSide = buf.result().take(halfBudget)
    val buf2 = Array.newBuilder[Int]
    buf2 += sepId
    ai = 0
    while (ai < arity) { buf2 += colId(ai); ex.t(ai).foreach(buf2 += _); ai += 1 }
    val tSide = buf2.result().take(MaxSeq - sSide.length)
    (sSide ++ tSide, sSide.length)
  }

  protected def forwardLogit(t: Tape, ex: TokenPair): Node = {
    val (seq, sepPos) = serialize(ex)
    val x = emb(t, seq)
    val q = t.matmul(x, t.param(wq))
    val k = t.matmul(x, t.param(wk))
    val v = t.matmul(x, t.param(wv))
    val attn = t.matmul(t.softmaxRows(t.scale(t.matmulT(q, k), invSqrtD)), v)
    val r1   = t.add(x, attn)
    val r2   = t.add(r1, ffn2(t, ffn1(t, r1)))
    // sentence-pair head: pool each tuple's segment of the jointly-attended
    // sequence, then classify on [hs ; ht ; (hs-ht)^2 ; hs*ht]
    val hs = t.meanRows(t.sliceRows(r2, 1, sepPos))
    val ht = t.meanRows(t.sliceRows(r2, sepPos, seq.length))
    val feats = t.concatCols(Seq(hs, ht, t.square(t.sub(hs, ht)), t.mul(hs, ht)))
    classifier(t, feats)
  }
}
