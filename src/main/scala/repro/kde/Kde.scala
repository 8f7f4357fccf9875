package repro.kde

/** Univariate Gaussian-kernel density estimator (§V-B.3, Eq. 6 context).
  *
  * Bandwidth is Silverman's rule of thumb `1.06 σ n^{-1/5}`,
  * floored to avoid degenerate spikes when the sample is nearly constant
  * (the bootstrap positives of Alg. 1 have near-identical distances).
  */
final class Kde(sample: Array[Double]) {
  require(sample.nonEmpty, "KDE requires a non-empty sample")

  private val n    = sample.length
  private val mean = sample.sum / n
  private val sd   = math.sqrt(sample.map(x => (x - mean) * (x - mean)).sum / n)
  val bandwidth: Double = math.max(1.06 * sd * math.pow(n.toDouble, -0.2), 1e-3)

  private val norm = 1.0 / (n * bandwidth * math.sqrt(2.0 * math.Pi))

  /** Estimated density f̂(x). */
  def density(x: Double): Double = {
    var s = 0.0
    var i = 0
    while (i < n) {
      val u = (x - sample(i)) / bandwidth
      s += math.exp(-0.5 * u * u)
      i += 1
    }
    norm * s
  }
}
