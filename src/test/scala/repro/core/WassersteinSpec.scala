package repro.core

import org.scalatest.funsuite.AnyFunSuite

class WassersteinSpec extends AnyFunSuite {

  test("matches the Eq. 3 formula on a hand example") {
    val d = Wasserstein.w2sq(Array(1.0, 2.0), Array(0.5, 0.5), Array(0.0, 0.0), Array(1.0, 1.0))
    // (1)^2 + (2)^2 + (-.5)^2 + (-.5)^2 = 1 + 4 + 0.25 + 0.25
    assert(math.abs(d - 5.5) < 1e-12)
  }

  test("zero for identical distributions, positive otherwise") {
    val mu = Array(0.3, -0.7); val s = Array(0.2, 0.9)
    assert(Wasserstein.w2sq(mu, s, mu, s) == 0.0)
    assert(Wasserstein.w2sq(mu, s, Array(0.3, -0.6), s) > 0.0)
  }

  test("symmetric") {
    val a = (Array(1.0, 2.0), Array(0.1, 0.2))
    val b = (Array(-1.0, 0.5), Array(0.3, 0.4))
    assert(Wasserstein.w2sq(a._1, a._2, b._1, b._2) == Wasserstein.w2sq(b._1, b._2, a._1, a._2))
  }

  test("tuple distance sums attribute distances") {
    val r1 = TupleRepr(Array(Array(1.0), Array(2.0)), Array(Array(0.0), Array(0.0)))
    val r2 = TupleRepr(Array(Array(0.0), Array(0.0)), Array(Array(0.0), Array(0.0)))
    assert(Wasserstein.tupleW2sq(r1, r2) == 5.0)
  }

  test("W2 distance correlates with the Euclidean distance of means (§V-A)") {
    // when sigmas are equal, W2^2 == squared euclidean of the mus
    val s = Array(0.5, 0.5)
    val d = Wasserstein.w2sq(Array(3.0, 4.0), s, Array(0.0, 0.0), s)
    assert(math.abs(d - 25.0) < 1e-12)
  }

  test("muFlat concatenates attribute means in order") {
    val r = TupleRepr(Array(Array(1.0, 2.0), Array(3.0)), Array(Array(0.0, 0.0), Array(0.0)))
    assert(r.muFlat.toSeq == Seq(1.0, 2.0, 3.0))
    assert(r.arity == 2)
  }
}
