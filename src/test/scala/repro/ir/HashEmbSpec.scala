package repro.ir

import org.scalatest.funsuite.AnyFunSuite

class HashEmbSpec extends AnyFunSuite {
  private val emb = new HashEmb(64)

  test("word vectors are deterministic and unit-norm") {
    val a = emb.word("coldplay")
    val b = new HashEmb(64).word("coldplay")
    assert(a.toSeq == b.toSeq)
    val norm = math.sqrt(a.map(x => x * x).sum)
    assert(math.abs(norm - 1.0) < 1e-9)
  }

  test("typos stay close, unrelated words stay far") {
    val clean = emb.word("restaurant")
    val typo  = emb.word("restaurnt")   // dropped character
    val other = emb.word("zebra")
    val simTypo  = HashEmb.cosine(clean, typo)
    val simOther = HashEmb.cosine(clean, other)
    assert(simTypo > 0.35, s"typo similarity $simTypo")
    assert(simTypo > simOther + 0.3, s"typo=$simTypo other=$simOther")
  }

  test("different salts decorrelate embeddings") {
    val a = new HashEmb(64, salt = 1).word("coldplay")
    val b = new HashEmb(64, salt = 2).word("coldplay")
    assert(math.abs(HashEmb.cosine(a, b)) < 0.5)
  }

  test("sentence vector is the normalized mean of word vectors") {
    val s = emb.sentence("charlie brown")
    val norm = math.sqrt(s.map(x => x * x).sum)
    assert(math.abs(norm - 1.0) < 1e-9)
    // direction matches mean of word vectors
    val m = emb.word("charlie").zip(emb.word("brown")).map { case (a, b) => (a + b) / 2 }
    assert(HashEmb.cosine(s, m) > 0.999)
  }

  test("empty sentence maps to the zero vector") {
    assert(emb.sentence("").forall(_ == 0.0))
    assert(emb.sentence("!!!").forall(_ == 0.0))
  }

  test("sentences sharing words are closer than disjoint ones") {
    val a = emb.sentence("stone ipa brewing")
    val b = emb.sentence("stone ipa company")
    val c = emb.sentence("quarterly revenue forecast")
    assert(HashEmb.cosine(a, b) > HashEmb.cosine(a, c) + 0.3)
  }

  test("l2normalize leaves zero vector untouched and scales others to 1") {
    val z = new Array[Double](4)
    HashEmb.l2normalize(z)
    assert(z.forall(_ == 0.0))
    val v = Array(3.0, 4.0, 0.0, 0.0)
    HashEmb.l2normalize(v)
    assert(math.abs(math.sqrt(v.map(x => x * x).sum) - 1.0) < 1e-12)
  }

  test("euclidean and cosine helpers agree on unit vectors") {
    val a = emb.word("alpha"); val b = emb.word("beta")
    val cos = HashEmb.cosine(a, b)
    val d   = HashEmb.euclidean(a, b)
    // for unit vectors: d^2 = 2 - 2cos
    assert(math.abs(d * d - (2 - 2 * cos)) < 1e-9)
  }

  test("concurrent callers of a fresh embedding share one vector per word and get the sequential sentences") {
    // All threads first ask for the same 2000 words in the same order, so they
    // race on every miss, then embed 1000 sentences over those words, each
    // thread in its own order.
    val words = (0 until 2000).map(i => s"w${i}x${i % 7}")
    val sentences = (0 until 1000).map(i => (0 until 5).map(j => words((i * 3 + j * 401) % words.length)).mkString(" "))
    val expected = { val e = new HashEmb(64); sentences.map(e.sentence) }
    val shared = new HashEmb(64)
    val start = new java.util.concurrent.CountDownLatch(1)
    val vecs = new Array[IndexedSeq[Array[Double]]](4)
    val got  = new Array[IndexedSeq[Array[Double]]](4)
    def order(t: Int, i: Int) = (i + 250 * t) % sentences.length
    val threads = got.indices.map { t =>
      new Thread(() => {
        start.await()
        vecs(t) = words.map(shared.word)
        got(t) = sentences.indices.map(i => shared.sentence(sentences(order(t, i))))
      })
    }
    threads.foreach(_.start()); start.countDown(); threads.foreach(_.join())
    val twice = for (t <- got.indices; w <- words.indices if !(vecs(t)(w) eq vecs(0)(w))) yield (t, words(w))
    val nTwice = twice.size
    assert(nTwice == 0, s"(thread, word) pairs that got a second vector, first five: ${twice.take(5)}")
    for (t <- got.indices; i <- sentences.indices)
      assert(java.util.Arrays.equals(got(t)(i), expected(order(t, i))), s"thread $t, sentence $i")
  }
}
