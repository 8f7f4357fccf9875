package repro.nn

import org.scalatest.funsuite.AnyFunSuite
import PrimitiveGraphs.same

/** The fused tape ops equal the primitive graphs they replace, bit for bit,
  * in value and in every gradient.
  */
class FusedOpsSpec extends AnyFunSuite {

  private val Activations = Seq("linear", "relu", "sigmoid", "tanh")

  /** An upstream gradient with exact zeros of both signs among Gaussian entries. */
  private def upstream(rows: Int, cols: Int, seed: Long): Mat =
    Mat.randn(rows, cols, new Rng(seed)).map(v => if (v > 1.0) 0.0 else if (v < -1.0) -0.0 else v)

  /** A dense layer with a non-zero bias, and a copy of it. */
  private def layers(in: Int, out: Int, act: String): (Dense, Dense) = {
    val d = new Dense(in, out, new Rng(3), act)
    d.b.value = Mat.randn(1, out, new Rng(4), 0.5)
    val copy = new Dense(in, out, new Rng(99), act)
    copy.restore(d.snapshot())
    (d, copy)
  }

  /** For m x k inputs to a k -> n layer: value, weight, bias and input gradients of both graphs are equal. */
  private def checkDense(m: Int, k: Int, n: Int): Unit = Activations.foreach { act =>
    val xv = Mat.randn(m, k, new Rng(5)).map(v => if (v > 0) v else 0.0)
    val r  = upstream(m, n, 6)
    val (fused, ref) = layers(k, n, act)
    val xf = new Param("xf", xv.copy()); val xr = new Param("xr", xv.copy())
    val tf = new Tape; val tr = new Tape
    val yf = tf.dense(tf.param(xf), fused.w, fused.b, Activation(act))
    val yr = PrimitiveGraphs.dense(tr, tr.param(xr), ref)
    tf.backward(tf.sumAll(tf.mul(yf, tf.const(r))))
    tr.backward(tr.sumAll(tr.mul(yr, tr.const(r))))
    val shape = s"$m x $k x $n $act"
    assert(same(yf.value, yr.value), s"$shape: value")
    assert(same(fused.infer(xv), yr.value), s"$shape: infer")
    assert(same(fused.w.grad, ref.w.grad), s"$shape: weight gradient")
    assert(same(fused.b.grad, ref.b.grad), s"$shape: bias gradient")
    assert(same(xf.grad, xr.grad), s"$shape: input gradient")
  }

  test("Tape.dense equals matmul, addBias and the activation op, below the split size") {
    assert(5L * 7 * 4 < Mat.ParallelWork)
    checkDense(5, 7, 4)
  }

  test("Tape.dense equals matmul, addBias and the activation op, above the split size") {
    assert(256L * 64 * 64 >= Mat.ParallelWork)
    checkDense(256, 64, 64)
  }

  test("Tape.dense gives a constant input no gradient") {
    val (d, _) = layers(3, 2, "relu")
    val t = new Tape
    val x = t.const(Mat.randn(4, 3, new Rng(7)))
    t.backward(t.sumAll(t.square(t.dense(x, d.w, d.b, Activation.Relu))))
    assert(!x.hasGrad)
    assert(d.w.grad.data.exists(_ != 0.0))
  }

  test("w2Features and rowSums equal the slice, sub, square, add and ones-product graph") {
    val (blocks, b, l) = (3, 5, 4)
    val muV = Mat.randn(2 * blocks * b, l, new Rng(8))
    val sgV = Mat.randn(2 * blocks * b, l, new Rng(9)).map(math.exp)
    // a pair of equal rows gives exact zero features
    System.arraycopy(muV.data, 0, muV.data, blocks * b * l, l)
    System.arraycopy(sgV.data, 0, sgV.data, blocks * b * l, l)
    val rf = upstream(b, blocks * l, 10)
    val rw = (0 until blocks).map(q => upstream(b, 1, 11 + q))

    /** Feature value, W₂² values and the (μ, σ) gradients of one graph. */
    def run(graph: (Tape, Node, Node) => (Node, IndexedSeq[Node])): (Mat, Seq[Mat], Mat, Mat) = {
      val mu = new Param("mu", muV.copy()); val sg = new Param("sigma", sgV.copy())
      val t = new Tape
      val (feats, w2s) = graph(t, t.param(mu), t.param(sg))
      // the features' consumer is recorded after the W₂² nodes, as in the matcher
      val loss = (t.sumAll(t.mul(feats, t.const(rf))) +: w2s.zip(rw).map { case (w, r) => t.sumAll(t.mul(w, t.const(r))) })
        .reduce(t.add)
      t.backward(loss)
      (feats.value, w2s.map(_.value), mu.grad, sg.grad)
    }
    val (ff, wf, muF, sgF) = run { (t, mu, sg) =>
      val feats = t.w2Features(mu, sg, blocks)
      (feats, (0 until blocks).map(q => t.rowSums(feats, q * l, (q + 1) * l)))
    }
    val (fr, wr, muR, sgR) = run((t, mu, sg) => PrimitiveGraphs.w2(t, mu, sg, blocks))
    assert(same(ff, fr), "features")
    wf.zip(wr).foreach { case (a, b) => assert(same(a, b), "W2²") }
    assert(same(muF, muR), "mu gradient")
    assert(same(sgF, sgR), "sigma gradient")
  }

  test("w2Features rejects (mu, sigma) that do not split into the pairs of blocks") {
    val t = new Tape
    intercept[IllegalArgumentException](t.w2Features(t.const(Mat.zeros(6, 2)), t.const(Mat.zeros(6, 2)), 2))
  }
}
