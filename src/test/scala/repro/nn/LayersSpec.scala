package repro.nn

import org.scalatest.funsuite.AnyFunSuite

class LayersSpec extends AnyFunSuite {

  test("Dense output shape and linearity") {
    val d = new Dense(3, 2, new Rng(1), "linear")
    val t = new Tape
    val y = d(t, t.const(Mat.randn(5, 3, new Rng(2))))
    assert(y.value.rows == 5 && y.value.cols == 2)
  }

  test("Dense rejects unknown activation") {
    val d = new Dense(2, 2, new Rng(1), "bogus")
    val t = new Tape
    intercept[IllegalArgumentException](d(t, t.const(Mat.zeros(1, 2))))
  }

  test("Dense.infer equals the tape forward pass for every activation") {
    val x = Mat.randn(5, 3, new Rng(2))
    Seq("linear", "relu", "sigmoid", "tanh").foreach { act =>
      val d = new Dense(3, 4, new Rng(1), act)
      val t = new Tape
      assert(d.infer(x).data.toSeq == d(t, t.const(x)).value.data.toSeq, act)
    }
  }

  test("Mlp.infer equals Mlp.apply") {
    val mlp = new Mlp(Seq(3, 6, 2), Seq("relu", "linear"), new Rng(4))
    val x = Mat.randn(5, 3, new Rng(5))
    val t = new Tape
    assert(mlp.infer(x).data.toSeq == mlp(t, t.const(x)).value.data.toSeq)
  }

  test("Mlp validates sizes/activations arity") {
    intercept[IllegalArgumentException](new Mlp(Seq(2, 3), Seq("relu", "relu"), new Rng(1)))
  }

  test("Mlp learns XOR") {
    val rng = new Rng(3)
    val mlp = new Mlp(Seq(2, 8, 1), Seq("tanh", "linear"), rng)
    val adam = new Adam(0.01)
    val xs = Mat(4, 2)(0, 0, 0, 1, 1, 0, 1, 1)
    val ys = Array(0.0, 1.0, 1.0, 0.0)
    var lastLoss = Double.MaxValue
    (1 to 800).foreach { _ =>
      val t = new Tape
      val p = t.sigmoid(mlp(t, t.const(xs)))
      val y = t.const(new Mat(4, 1, ys.clone()))
      val invY = t.const(new Mat(4, 1, ys.map(1.0 - _)))
      val loss = t.scale(t.sumAll(t.add(
        t.mul(y, t.log(t.addConst(p, 1e-7))),
        t.mul(invY, t.log(t.addConst(t.scale(p, -1.0), 1.0 + 1e-7))))), -0.25)
      t.backward(loss)
      adam.step(mlp.params)
      lastLoss = loss.value.data(0)
    }
    assert(lastLoss < 0.1, s"XOR loss did not converge: $lastLoss")
    val t = new Tape
    val preds = t.sigmoid(mlp(t, t.const(xs))).value.data
    assert(preds(0) < 0.5 && preds(1) > 0.5 && preds(2) > 0.5 && preds(3) < 0.5)
  }

  test("Adam converges on a quadratic") {
    val p = new Param("p", Mat.rowVector(Array(5.0, -3.0, 2.0)))
    val adam = new Adam(0.05)
    (1 to 500).foreach { _ =>
      val t = new Tape
      val loss = t.sumAll(t.square(t.param(p)))
      t.backward(loss)
      adam.step(Seq(p))
    }
    assert(p.value.data.forall(v => math.abs(v) < 1e-2), p.value.data.toSeq.toString)
  }

  test("EmbeddingTable gathers rows and trains") {
    val rng = new Rng(5)
    val emb = new EmbeddingTable(10, 4, rng)
    val t = new Tape
    val g = emb(t, Array(1, 3, 1))
    assert(g.value.rows == 3 && g.value.cols == 4)
    assert(g.value.row(0).toSeq == g.value.row(2).toSeq)

    // minimizing the norm of row 1's lookup drives that row toward zero
    val adam = new Adam(0.05)
    (1 to 300).foreach { _ =>
      val tt = new Tape
      val loss = tt.sumAll(tt.square(emb(tt, Array(1))))
      tt.backward(loss)
      adam.step(emb.params)
    }
    assert(emb.table.value.row(1).forall(v => math.abs(v) < 1e-2))
    // untouched rows unchanged magnitude
    assert(emb.table.value.row(2).exists(v => math.abs(v) > 1e-3))
  }

  test("Rnn's final state equals the hand-unrolled tanh(x_t W + h U + b)") {
    val rnn = new Rnn(4, new Rng(10))
    rnn.b.value = Mat.randn(1, 4, new Rng(11)) // a nonzero bias, so b's term is checked too
    val x = Mat.randn(5, 4, new Rng(12))
    val t = new Tape
    val got = rnn(t, t.const(x)).value
    var h = Mat.zeros(1, 4)
    (0 until x.rows).foreach { i =>
      h = (Mat.rowVector(x.row(i)) * rnn.w.value + h * rnn.u.value + rnn.b.value).map(math.tanh)
    }
    assert(got.rows == 1 && got.data.toSeq == h.data.toSeq)
  }

  test("snapshot/restore round-trips parameter values") {
    val d = new Dense(3, 3, new Rng(7))
    val snap = d.snapshot()
    val before = d.w.value.copy()
    d.w.value.data(0) += 10.0
    d.restore(snap)
    assert(d.w.value.data.toSeq == before.data.toSeq)
  }

  test("zeroGrads clears accumulated gradients") {
    val d = new Dense(2, 2, new Rng(8))
    val t = new Tape
    val l = t.sumAll(t.square(d(t, t.const(Mat.randn(3, 2, new Rng(9))))))
    t.backward(l)
    assert(d.w.grad.data.exists(_ != 0.0))
    d.zeroGrads()
    assert(d.w.grad.data.forall(_ == 0.0))
  }
}
