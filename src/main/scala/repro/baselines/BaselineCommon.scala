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

  /** Embedding table initialized from the frozen hashed word vectors — the
    * analogue of initializing from pre-trained embeddings, then fine-tuned.
    */
  def pretrainedEmbedding(dim: Int, rng: Rng, name: String): EmbeddingTable = {
    val emb  = new EmbeddingTable(vocabSize, dim, rng, name)
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

  /** Optional convergence cutoff: stop once the epoch loss drops below this.
    * Disabled (0.0) by default — the published baselines train for a fixed
    * epoch budget, which is exactly the cost profile Table VI measures.
    * Small-pool unit tests enable it to avoid pure memorization.
    */
  protected def earlyStopLoss: Double = 0.0

  def trainOn(train: IndexedSeq[TokenPair], rng: Rng): Seq[Double] = {
    val adam = new Adam(0.001)
    val idx  = Array.tabulate(train.length)(identity)
    // A floor of 3000 per-example updates, so tiny pools still converge in tests.
    val eff  = math.max(epochs, (3000 + train.length - 1) / math.max(1, train.length))
    val out  = Seq.newBuilder[Double]
    var e = 0
    var stop = false
    while (e < eff && !stop) {
      rng.shuffle(idx)
      var sum = 0.0
      var i = 0
      while (i < idx.length) {
        val ex = train(idx(i))
        val t  = new Tape
        val logit = forwardLogit(t, ex)
        val p     = t.sigmoid(logit)
        val y     = ex.label.toDouble
        val loss  = t.scale(
          t.add(
            t.scale(t.log(t.addConst(p, 1e-7)), -y),
            t.scale(t.log(t.addConst(t.scale(p, -1.0), 1.0 + 1e-7)), -(1.0 - y))),
          1.0)
        val lossScalar = t.sumAll(loss)
        t.backward(lossScalar)
        adam.step(allParams)
        sum += lossScalar.value.data(0)
        i += 1
      }
      val epochLoss = sum / math.max(1, idx.length)
      out += epochLoss
      if (earlyStopLoss > 0.0 && epochLoss < earlyStopLoss) stop = true
      e += 1
    }
    out.result()
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
