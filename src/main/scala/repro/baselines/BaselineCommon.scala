package repro.baselines

import repro.er.{ErDataset, LabeledPair, Metrics, Prf}
import repro.ir.{HashEmb, Tokenize}
import repro.nn._

/** Tokenized tuple pair for the end-to-end baselines: per-attribute token-id
  * sequences for both tuples plus the label.
  */
final case class TokenPair(s: IndexedSeq[Array[Int]], t: IndexedSeq[Array[Int]], label: Int)

/** Shared preprocessing for the DeepER / DeepMatcher / DITTO analogues:
  * a corpus vocabulary over both tables and capped token-id sequences per
  * attribute value. Index 0 is PAD/UNK (kept as a real embedding row).
  */
final class TokenCorpus(ds: ErDataset, maxLen: Int) {
  private val (aAttrs, bAttrs) = {
    val (a, b) = ds.collectTuples().partition(_._1 == "A")
    (a.map(t => t._2 -> t._3).toMap, b.map(t => t._2 -> t._3).toMap)
  }

  val vocab: Map[String, Int] = {
    val words = (aAttrs.valuesIterator ++ bAttrs.valuesIterator)
      .flatten.flatMap(Tokenize.tokens).toSeq.distinct.sorted
    words.zipWithIndex.map { case (w, i) => w -> (i + 1) }.toMap
  }
  val vocabSize: Int = vocab.size + 1
  val words: IndexedSeq[String] = {
    val arr = new Array[String](vocabSize)
    arr(0) = ""
    vocab.foreach { case (w, i) => arr(i) = w }
    arr.toIndexedSeq
  }

  private def encodeValue(v: String): Array[Int] = {
    val ids = Tokenize.tokens(v).take(maxLen).map(t => vocab.getOrElse(t, 0)).toArray
    if (ids.isEmpty) Array(0) else ids
  }

  private val aTok = aAttrs.map { case (id, vs) => id -> vs.toIndexedSeq.map(encodeValue) }
  private val bTok = bAttrs.map { case (id, vs) => id -> vs.toIndexedSeq.map(encodeValue) }

  def pair(p: LabeledPair): TokenPair = TokenPair(aTok(p.idA), bTok(p.idB), p.label)
  def pairs(ps: Seq[LabeledPair]): IndexedSeq[TokenPair] = ps.toIndexedSeq.map(pair)

  /** Embedding table whose word rows are the frozen hashed word vectors — the
    * analogue of initializing from pre-trained embeddings. Rows from
    * `vocabSize` on (a model's marker tokens) keep their random init.
    */
  def pretrainedEmbedding(dim: Int, rng: Rng, name: String, rows: Int = vocabSize): EmbeddingTable = {
    val emb  = new EmbeddingTable(rows, dim, rng, name)
    val hash = new HashEmb(dim)
    var i = 1
    while (i < vocabSize) {
      val v = hash.word(words(i))
      System.arraycopy(v, 0, emb.table.value.data, i * dim, dim)
      i += 1
    }
    emb
  }
}

/** Common training/eval loop for the baselines: per-example graphs (these
  * architectures are sequence-structured, so examples don't batch into one
  * matmul the way VAER's distance features do — and that cost asymmetry is
  * exactly the paper's Table VI point).
  */
trait BaselineMatcher {
  def name: String
  protected def forwardLogit(t: Tape, ex: TokenPair): Node
  protected def allParams: Seq[Param]
  protected def epochs: Int

  /** One Adam step per example on the binary cross-entropy; returns each epoch's mean loss. */
  def trainOn(train: IndexedSeq[TokenPair], rng: Rng): Seq[Double] = {
    val adam = new Adam(0.001)
    // A floor of 3000 per-example updates, so tiny pools still converge in tests.
    val eff  = math.max(epochs, (3000 + train.length - 1) / math.max(1, train.length))
    Minibatch.run(train, 1, eff, rng) { batch =>
      val ex    = batch.head
      val t     = new Tape
      val p     = t.sigmoid(forwardLogit(t, ex))
      val y     = ex.label.toDouble
      val loss  = t.sumAll(t.add(
        t.scale(t.log(t.addConst(p, 1e-7)), -y),
        t.scale(t.log(t.addConst(t.scale(p, -1.0), 1.0 + 1e-7)), -(1.0 - y))))
      t.backward(loss)
      adam.step(allParams)
      loss.value.data(0)
    }
  }

  def predict(pairs: IndexedSeq[TokenPair]): Array[Double] =
    pairs.map { ex =>
      val t = new Tape
      val p = t.sigmoid(forwardLogit(t, ex))
      p.value.data(0)
    }.toArray

  def evaluate(test: Seq[LabeledPair], corpus: TokenCorpus): Prf = {
    val probs = predict(corpus.pairs(test))
    val predicted = test.zip(probs).collect { case (p, pr) if pr > 0.5 => (p.idA, p.idB) }.toSet
    Metrics.prfLocal(test, predicted)
  }
}
