package repro.baselines

import repro.SparkSpec
import repro.data.ErSynth
import repro.core.Vaer
import repro.nn.Rng

/** Each baseline must learn a tiny ER task well above chance and share the
  * same corpus preprocessing.
  */
class BaselineSpec extends SparkSpec {
  private implicit def s: org.apache.spark.sql.SparkSession = spark

  // Cit. 1 tiny has the largest tiny-scale training pool (~375 pairs) —
  // the attention/RNN baselines need that much to generalize at dim 16.
  private lazy val ds     = ErSynth.generateTiny(spark, "Cit. 1")
  private lazy val corpus = new TokenCorpus(ds, maxLen = 8)
  private lazy val train  = Vaer.collectPairs(ds.train)
  private lazy val test   = Vaer.collectPairs(ds.test)

  test("corpus builds a deterministic vocabulary with PAD at 0") {
    assert(corpus.vocabSize == corpus.vocab.size + 1)
    assert(corpus.words(0) == "")
    assert(corpus.vocab.values.min == 1)
    val again = new TokenCorpus(ds, maxLen = 8)
    assert(again.vocab == corpus.vocab)
  }

  test("token sequences are capped and non-empty") {
    val tp = corpus.pair(train.head)
    (tp.s ++ tp.t).foreach { toks =>
      assert(toks.nonEmpty && toks.length <= 8)
      toks.foreach(t => assert(t >= 0 && t < corpus.vocabSize))
    }
  }

  test("pretrained embedding rows match hashed word vectors") {
    val hash = new repro.ir.HashEmb(16)
    // the corpus-sized table and one with 3 extra (marker) rows past the vocabulary
    for (rows <- Seq(corpus.vocabSize, corpus.vocabSize + 3)) {
      val emb = corpus.pretrainedEmbedding(16, new Rng(1), "t", rows)
      assert(emb.table.value.rows == rows)
      (1 until corpus.vocabSize).foreach { i =>
        assert(emb.table.value.row(i).toSeq == hash.word(corpus.words(i)).toSeq, s"rows=$rows word $i")
      }
    }
  }

  for ((mk, nm) <- Seq(
    ((rng: Rng) => new DeepEr(corpus, ds.arity, rng, dim = 16, epochs = 6), "DeepER"),
    ((rng: Rng) => new DeepMatcherM(corpus, ds.arity, rng, dim = 16, epochs = 6), "DM"),
    ((rng: Rng) => new Ditto(corpus, ds.arity, rng, dim = 16, epochs = 6), "DITTO"))) {

    test(s"$nm: training reduces the loss") {
      val rng = new Rng(42)
      val model = mk(rng.split())
      val losses = model.trainOn(corpus.pairs(train), rng.split())
      assert(losses.head > losses.last, s"$nm losses=$losses")
    }

    test(s"$nm: learns the tiny task above chance") {
      val rng = new Rng(43)
      val model = mk(rng.split())
      model.trainOn(corpus.pairs(train), rng.split())
      val prf = model.evaluate(test, corpus)
      // ~40 training pairs is a stress test; all-positive guessing scores
      // F1 = 0.4 here, so > 0.45 means genuine signal was learned.
      assert(prf.f1 > 0.45, s"$nm F1=${prf.f1}")
    }
  }

  test("predict returns probabilities in (0, 1)") {
    val rng = new Rng(44)
    val model = new DeepEr(corpus, ds.arity, rng.split(), dim = 16, epochs = 1)
    model.trainOn(corpus.pairs(train.take(20)), rng.split())
    val ps = model.predict(corpus.pairs(test.take(10)))
    assert(ps.forall(p => p > 0 && p < 1))
  }
}
