package repro.kde

import org.scalatest.funsuite.AnyFunSuite
import repro.nn.Rng

class KdeSpec extends AnyFunSuite {

  test("density integrates to ~1") {
    val rng  = new Rng(1)
    val data = Array.fill(500)(rng.nextGaussian() * 2.0 + 3.0)
    val kde  = new Kde(data)
    val step = 0.05
    val integral = Iterator.iterate(-20.0)(_ + step).takeWhile(_ <= 25.0)
      .map(x => kde.density(x) * step).sum
    assert(math.abs(integral - 1.0) < 0.02, s"integral=$integral")
  }

  test("density peaks near the sample mean for unimodal data") {
    val rng  = new Rng(2)
    val data = Array.fill(1000)(rng.nextGaussian() + 5.0)
    val kde  = new Kde(data)
    assert(kde.density(5.0) > kde.density(2.0))
    assert(kde.density(5.0) > kde.density(8.0))
  }

  test("bimodal data yields two high-density regions") {
    val rng  = new Rng(3)
    val data = Array.fill(500)(rng.nextGaussian() * 0.3) ++
               Array.fill(500)(rng.nextGaussian() * 0.3 + 10.0)
    val kde = new Kde(data)
    assert(kde.density(0.0) > kde.density(5.0) * 3)
    assert(kde.density(10.0) > kde.density(5.0) * 3)
  }

  test("Silverman bandwidth grows with spread") {
    val rng = new Rng(4)
    val narrow = new Kde(Array.fill(200)(rng.nextGaussian() * 0.1))
    val wide   = new Kde(Array.fill(200)(rng.nextGaussian() * 5.0))
    assert(wide.bandwidth > narrow.bandwidth)
  }

  test("constant sample does not degenerate") {
    val kde = new Kde(Array.fill(50)(2.0))
    assert(!kde.density(2.0).isInfinite && kde.density(2.0) > 0)
    assert(kde.density(2.0) > kde.density(3.0))
  }

  test("empty sample rejected") {
    intercept[IllegalArgumentException](new Kde(Array.empty[Double]))
  }
}
