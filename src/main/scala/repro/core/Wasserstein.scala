package repro.core

/** Squared 2-Wasserstein distance between diagonal Gaussians (Eq. 3):
  * `W2²(p, q) = Σᵢ (μᵢᵖ − μᵢᵠ)² + (σᵢᵖ − σᵢᵠ)²`.
  */
object Wasserstein {

  /** Scalar W2² of one attribute. */
  def w2sq(muS: Array[Double], sigS: Array[Double],
           muT: Array[Double], sigT: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < muS.length) {
      val dm = muS(i) - muT(i); val ds = sigS(i) - sigT(i)
      s += dm * dm + ds * ds
      i += 1
    }
    s
  }

  /** Whole-tuple W2²: sum of per-attribute distances. */
  def tupleW2sq(s: TupleRepr, t: TupleRepr): Double = {
    var sum = 0.0
    var i = 0
    while (i < s.mu.length) {
      sum += w2sq(s.mu(i), s.sigma(i), t.mu(i), t.sigma(i))
      i += 1
    }
    sum
  }
}

/** Entity representation (§III): per-attribute (μ, σ) pairs of one tuple. */
final case class TupleRepr(mu: Array[Array[Double]], sigma: Array[Array[Double]]) {
  def arity: Int = mu.length

  /** Concatenated μ vector — the LSH/NN search key (§VI-B). */
  def muFlat: Array[Double] = {
    val out = new Array[Double](mu.map(_.length).sum)
    var off = 0
    mu.foreach { v => System.arraycopy(v, 0, out, off, v.length); off += v.length }
    out
  }
}
