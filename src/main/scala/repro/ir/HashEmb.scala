package repro.ir

import java.util.concurrent.ConcurrentHashMap
import repro.nn.Rng

/** Deterministic character-n-gram hashed word embeddings.
  *
  * Stand-in for the paper's *pre-trained* word2vec/GloVe vectors (offline
  * image — no 3 GB GoogleNews binary). A word's vector is the L2-normalized
  * sum of deterministic Gaussian vectors hashed from its character 3–5-grams
  * plus the whole word, fastText-style. This is corpus-independent and
  * frozen — exactly the property VAER exploits from pre-trained embeddings —
  * and morphologically close words (typos, truncations) land close, which is
  * the similarity signal the synthetic duplicates carry. Safe for concurrent
  * callers: a word's vector depends only on the word and the salt.
  */
final class HashEmb(val dim: Int, salt: Long = 0x5EEDL) {
  private val cache = new ConcurrentHashMap[String, Array[Double]]

  private def ngramVector(gram: String): Array[Double] = {
    // Stable 64-bit FNV-1a of the gram mixed with the salt seeds a local RNG.
    var h = 0xcbf29ce484222325L ^ salt
    var i = 0
    while (i < gram.length) { h ^= gram.charAt(i).toLong; h *= 0x100000001b3L; i += 1 }
    val rng = new Rng(h)
    Array.fill(dim)(rng.nextGaussian())
  }

  /** Frozen vector for one word (cached). */
  def word(w: String): Array[Double] = cache.computeIfAbsent(w, w => {
    val padded = s"<$w>"
    val out    = new Array[Double](dim)
    var added  = 0
    for (n <- 3 to 5; i <- 0 to padded.length - n) {
      val g = ngramVector(padded.substring(i, i + n))
      var j = 0
      while (j < dim) { out(j) += g(j); j += 1 }
      added += 1
    }
    val whole = ngramVector(w)
    var j = 0
    while (j < dim) { out(j) += whole(j); j += 1 }
    HashEmb.l2normalize(out)
    out
  })

  /** Sentence IR: mean of word vectors, L2-normalized; zero vector if empty. */
  def sentence(text: String): Array[Double] = {
    val ts  = Tokenize.tokens(text)
    val out = new Array[Double](dim)
    if (ts.isEmpty) return out
    ts.foreach { t =>
      val v = word(t)
      var j = 0
      while (j < dim) { out(j) += v(j); j += 1 }
    }
    var j = 0
    while (j < dim) { out(j) /= ts.length; j += 1 }
    HashEmb.l2normalize(out)
    out
  }
}

object HashEmb {
  /** In-place L2 normalization (no-op on the zero vector). */
  def l2normalize(v: Array[Double]): Unit = {
    var s = 0.0; var i = 0
    while (i < v.length) { s += v(i) * v(i); i += 1 }
    if (s > 1e-24) {
      val inv = 1.0 / math.sqrt(s)
      i = 0
      while (i < v.length) { v(i) *= inv; i += 1 }
    }
  }

  def cosine(a: Array[Double], b: Array[Double]): Double = {
    var dot = 0.0; var na = 0.0; var nb = 0.0; var i = 0
    while (i < a.length) { dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1 }
    if (na == 0 || nb == 0) 0.0 else dot / math.sqrt(na * nb)
  }

  def euclidean(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }
}
