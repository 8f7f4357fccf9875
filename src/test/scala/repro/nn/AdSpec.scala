package repro.nn

import org.scalatest.funsuite.AnyFunSuite

/** Numerical gradient checks for every tape op: central finite differences
  * vs the analytic gradients accumulated by [[Tape.backward]].
  */
class AdSpec extends AnyFunSuite {

  private def param(name: String, r: Int, c: Int, seed: Long): Param =
    new Param(name, Mat.randn(r, c, new Rng(seed)))

  /** Assert analytic grads match central differences for every param. */
  private def checkGrads(params: Seq[Param], lossOf: () => (Tape, Node),
                         tol: Double = 1e-5): Unit = {
    params.foreach(_.zeroGrad())
    val (tape, loss) = lossOf()
    tape.backward(loss)
    val analytic = params.map(p => p.grad.copy())

    params.zip(analytic).foreach { case (p, g) =>
      val eps = 1e-5
      p.value.data.indices.foreach { i =>
        val orig = p.value.data(i)
        p.value.data(i) = orig + eps
        val fPlus = lossOf()._2.value.data(0)
        p.value.data(i) = orig - eps
        val fMinus = lossOf()._2.value.data(0)
        p.value.data(i) = orig
        val num = (fPlus - fMinus) / (2 * eps)
        assert(math.abs(num - g.data(i)) < tol,
          s"${p.name}[$i]: numeric=$num analytic=${g.data(i)}")
      }
    }
  }

  test("matmul gradients") {
    val a = param("a", 3, 4, 1); val b = param("b", 4, 2, 2)
    checkGrads(Seq(a, b), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.matmul(t.param(a), t.param(b))))
      (t, l)
    })
  }

  test("matmulT gradients") {
    val a = param("a", 3, 4, 3); val b = param("b", 5, 4, 4)
    checkGrads(Seq(a, b), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.matmulT(t.param(a), t.param(b))))
      (t, l)
    })
  }

  test("add, sub, mul gradients") {
    val a = param("a", 2, 3, 5); val b = param("b", 2, 3, 6)
    checkGrads(Seq(a, b), () => {
      val t = new Tape
      val na = t.param(a); val nb = t.param(b)
      val l  = t.sumAll(t.mul(t.add(na, nb), t.sub(na, nb)))
      (t, l)
    })
  }

  test("addBias gradients") {
    val a = param("a", 3, 4, 7); val b = param("b", 1, 4, 8)
    checkGrads(Seq(a, b), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.addBias(t.param(a), t.param(b))))
      (t, l)
    })
  }

  test("scale and addConst gradients") {
    val a = param("a", 2, 2, 9)
    checkGrads(Seq(a), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.addConst(t.scale(t.param(a), 2.5), -0.7)))
      (t, l)
    })
  }

  test("relu gradients") {
    // keep values away from the kink at 0
    val a = new Param("a", Mat.randn(3, 3, new Rng(10)).map(v => if (math.abs(v) < 0.2) v + 0.5 else v))
    checkGrads(Seq(a), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.relu(t.param(a))))
      (t, l)
    })
  }

  test("sigmoid gradients") {
    val a = param("a", 2, 3, 11)
    checkGrads(Seq(a), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.sigmoid(t.param(a))))
      (t, l)
    })
  }

  test("tanh gradients") {
    val a = param("a", 2, 3, 12)
    checkGrads(Seq(a), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.tanh(t.param(a))))
      (t, l)
    })
  }

  test("exp and log gradients") {
    val a = param("a", 2, 2, 13)
    checkGrads(Seq(a), () => {
      val t = new Tape
      val l = t.sumAll(t.log(t.addConst(t.exp(t.param(a)), 1.0)))
      (t, l)
    })
  }

  test("square gradients") {
    val a = param("a", 2, 3, 14)
    checkGrads(Seq(a), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.square(t.param(a))))
      (t, l)
    })
  }

  test("meanAll and meanRows gradients") {
    val a = param("a", 3, 4, 15)
    checkGrads(Seq(a), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.meanRows(t.param(a))))
      (t, l)
    })
    checkGrads(Seq(a), () => {
      val t = new Tape
      val l = t.meanAll(t.square(t.param(a)))
      (t, l)
    })
  }

  test("softmaxRows gradients") {
    val a = param("a", 3, 4, 16)
    val w = param("w", 4, 1, 17)
    checkGrads(Seq(a, w), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.matmul(t.softmaxRows(t.param(a)), t.param(w))))
      (t, l)
    })
  }

  test("concatCols gradients") {
    val a = param("a", 2, 3, 18); val b = param("b", 2, 2, 19)
    checkGrads(Seq(a, b), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.concatCols(Seq(t.param(a), t.param(b)))))
      (t, l)
    })
  }

  test("concatRows gradients") {
    val a = param("a", 2, 3, 20); val b = param("b", 3, 3, 21)
    checkGrads(Seq(a, b), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.concatRows(Seq(t.param(a), t.param(b)))))
      (t, l)
    })
  }

  test("sliceCols and sliceRows gradients") {
    val a = param("a", 4, 5, 22)
    checkGrads(Seq(a), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.sliceCols(t.param(a), 1, 4)))
      (t, l)
    })
    checkGrads(Seq(a), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.sliceRows(t.param(a), 1, 3)))
      (t, l)
    })
  }

  test("gather gradients (with repeated indices)") {
    val a = param("a", 5, 3, 23)
    val idx = Array(0, 2, 2, 4)
    checkGrads(Seq(a), () => {
      val t = new Tape
      val l = t.sumAll(t.square(t.gather(a, idx)))
      (t, l)
    })
  }

  test("dense gradients, every activation") {
    Seq("linear", "relu", "sigmoid", "tanh").foreach { act =>
      val x = param("x", 4, 3, 35); val w = param("w", 3, 2, 36); val b = param("b", 1, 2, 37)
      // a linear loss, so that outputs at relu's zero get a non-zero gradient too
      val r = Mat.randn(4, 2, new Rng(38))
      checkGrads(Seq(x, w, b), () => {
        val t = new Tape
        val l = t.sumAll(t.mul(t.dense(t.param(x), w, b, Activation(act)), t.const(r)))
        (t, l)
      })
    }
  }

  test("w2Features and rowSums gradients") {
    val mu = param("mu", 8, 3, 39)
    val sg = new Param("sigma", Mat.randn(8, 3, new Rng(40)).map(math.exp))
    checkGrads(Seq(mu, sg), () => {
      val t = new Tape
      val f = t.w2Features(t.param(mu), t.param(sg), 2)
      val l = t.add(t.sumAll(t.square(f)), t.sumAll(t.square(t.rowSums(f, 3, 6))))
      (t, l)
    })
  }

  test("composite graph: tiny VAE-style loss") {
    val w1 = param("w1", 4, 3, 24); val w2 = param("w2", 3, 4, 25)
    val x  = Mat.randn(2, 4, new Rng(26))
    checkGrads(Seq(w1, w2), () => {
      val t  = new Tape
      val h  = t.tanh(t.matmul(t.const(x), t.param(w1)))
      val r  = t.matmul(h, t.param(w2))
      val re = t.sumAll(t.square(t.sub(r, t.const(x))))
      val kl = t.scale(t.sumAll(t.sub(t.square(h), t.addConst(h, 1.0))), -0.5)
      (t, t.add(re, kl))
    })
  }

  test("composite graph: siamese-style distance loss") {
    val w = param("w", 3, 2, 27)
    val s = Mat.randn(4, 3, new Rng(28)); val u = Mat.randn(4, 3, new Rng(29))
    checkGrads(Seq(w), () => {
      val t  = new Tape
      val es = t.matmul(t.const(s), t.param(w))
      val eu = t.matmul(t.const(u), t.param(w))
      val dv = t.square(t.sub(es, eu))
      val ones = t.const(new Mat(2, 1, Array(1.0, 1.0)))
      val w2   = t.matmul(dv, ones)
      val hinge = t.relu(t.addConst(t.scale(w2, -1.0), 0.5))
      (t, t.sumAll(t.add(w2, hinge)))
    })
  }

  test("backward requires a scalar loss") {
    val t = new Tape
    val n = t.const(Mat.zeros(2, 2))
    intercept[IllegalArgumentException](t.backward(n))
  }

  test("a constant fed to matmul gets no gradient") {
    val w = param("w", 3, 2, 32)
    w.zeroGrad()
    val t = new Tape
    val x = t.const(Mat.randn(4, 3, new Rng(33)))
    val y = t.const(Mat.randn(4, 2, new Rng(34)))
    t.backward(t.sumAll(t.square(t.sub(t.matmul(x, t.param(w)), y))))
    assert(!x.hasGrad && !y.hasGrad)
    assert(w.grad.data.exists(_ != 0.0))
  }

  test("const nodes do not propagate into params not on the path") {
    val a = param("a", 2, 2, 30)
    val t = new Tape
    val l = t.sumAll(t.square(t.const(Mat.randn(2, 2, new Rng(31)))))
    t.backward(l)
    assert(a.grad.data.forall(_ == 0.0))
  }
}
