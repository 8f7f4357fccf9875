package repro.nn

import org.scalatest.funsuite.AnyFunSuite

class MatSpec extends AnyFunSuite {

  /** Deterministic property sweep over random shapes/seeds. */
  private def sweep(n: Int)(body: (Int, Int, Int, Long) => Unit): Unit = {
    val r = new Rng(0xABCDE)
    (0 until n).foreach { i =>
      body(1 + r.nextInt(6), 1 + r.nextInt(6), 1 + r.nextInt(6), i.toLong)
    }
  }

  private def naiveMatmul(a: Mat, b: Mat): Mat = {
    val out = Mat.zeros(a.rows, b.cols)
    for (i <- 0 until a.rows; j <- 0 until b.cols) {
      var s = 0.0
      for (k <- 0 until a.cols) s += a(i, k) * b(k, j)
      out(i, j) = s
    }
    out
  }

  private def approxEq(a: Mat, b: Mat, tol: Double = 1e-9): Boolean =
    a.rows == b.rows && a.cols == b.cols &&
      a.data.zip(b.data).forall { case (x, y) => math.abs(x - y) < tol }

  private def randMat(r: Int, c: Int, seed: Long): Mat = Mat.randn(r, c, new Rng(seed))

  test("matmul matches naive implementation") {
    sweep(50) { (r, k, c, seed) =>
      val a = randMat(r, k, seed); val b = randMat(k, c, seed + 1)
      assert(approxEq(a * b, naiveMatmul(a, b)))
    }
  }

  test("mulT equals a * b.t") {
    sweep(50) { (r, k, c, seed) =>
      val a = randMat(r, k, seed); val b = randMat(c, k, seed + 2)
      assert(approxEq(a.mulT(b), naiveMatmul(a, b.t)))
    }
  }

  test("tMul equals a.t * b") {
    sweep(50) { (r, k, c, seed) =>
      val a = randMat(k, r, seed); val b = randMat(k, c, seed + 3)
      assert(approxEq(a.tMul(b), naiveMatmul(a.t, b)))
    }
  }

  // The product loops Mat had before the row kernel, kept as references: the
  // kernel must reproduce them bit for bit.
  private def refMul(a: Mat, b: Mat): Mat = {
    val out = Mat.zeros(a.rows, b.cols)
    for (i <- 0 until a.rows; k <- 0 until a.cols if a(i, k) != 0.0; j <- 0 until b.cols)
      out(i, j) += a(i, k) * b(k, j)
    out
  }

  private def refMulT(a: Mat, b: Mat): Mat = {
    val out = Mat.zeros(a.rows, b.rows)
    for (i <- 0 until a.rows; j <- 0 until b.rows) {
      var s = 0.0
      for (k <- 0 until a.cols) s += a(i, k) * b(j, k)
      out(i, j) = s
    }
    out
  }

  private def refTMul(a: Mat, b: Mat): Mat = {
    val out = Mat.zeros(a.cols, b.cols)
    for (k <- 0 until a.rows; i <- 0 until a.cols if a(k, i) != 0.0; j <- 0 until b.cols)
      out(i, j) += a(k, i) * b(k, j)
    out
  }

  private def same(a: Mat, b: Mat): Boolean =
    a.rows == b.rows && a.cols == b.cols && a.data.toSeq == b.data.toSeq

  /** ReLU output: about half the entries are exact zeros. */
  private def reluMat(r: Int, c: Int, seed: Long): Mat = randMat(r, c, seed).map(v => if (v > 0) v else 0.0)

  // 300 x 64 * 64 x 64 is above the size at which products split their rows.
  private val big = reluMat(300, 64, 40)
  private val sq  = randMat(64, 64, 41)

  test("products above the split size equal the reference loops bit for bit") {
    assert(300L * 64 * 64 >= Mat.ParallelWork)
    assert(same(big * sq, refMul(big, sq)))
    assert(same(sq.mulT(big), refMulT(sq, big)))
    assert(same(big.mulT(reluMat(200, 64, 42)), refMulT(big, reluMat(200, 64, 42))))
    assert(same(big.tMul(reluMat(300, 48, 43)), refTMul(big, reluMat(300, 48, 43))))
  }

  test("small products equal the reference loops bit for bit") {
    sweep(50) { (r, k, c, seed) =>
      val a = reluMat(r, k, seed); val b = randMat(k, c, seed + 1)
      assert(same(a * b, refMul(a, b)))
      assert(same(a.mulT(b.t), refMulT(a, b.t)))
      assert(same(a.t.tMul(b), refTMul(a.t, b)))
    }
  }

  test("products are the same from inside a one-thread and a three-thread ForkJoin pool") {
    val expected = refMul(big, sq)
    Seq(1, 3).foreach { threads =>
      val pool = new java.util.concurrent.ForkJoinPool(threads)
      try {
        val got = pool.submit(new java.util.concurrent.Callable[Mat] { def call(): Mat = big * sq }).get()
        assert(same(got, expected), s"$threads threads")
      } finally pool.shutdown()
    }
  }

  test("concatRows stacks rows and rejects mismatched widths") {
    val m = Mat.concatRows(Seq(Mat(1, 2)(1, 2), Mat(2, 2)(3, 4, 5, 6)))
    assert(m.rows == 3 && m.data.toSeq == Seq(1.0, 2.0, 3.0, 4.0, 5.0, 6.0))
    intercept[IllegalArgumentException](Mat.concatRows(Seq(Mat.zeros(1, 2), Mat.zeros(1, 3))))
  }

  test("transpose is an involution") {
    sweep(50) { (r, c, _, seed) =>
      val a = randMat(r, c, seed)
      assert(approxEq(a.t.t, a))
    }
  }

  test("matmul rejects shape mismatch") {
    intercept[IllegalArgumentException](Mat.zeros(2, 3) * Mat.zeros(4, 2))
  }

  test("add and sub are elementwise") {
    val a = Mat(2, 2)(1, 2, 3, 4)
    val b = Mat(2, 2)(10, 20, 30, 40)
    assert((a + b).data.toSeq == Seq(11.0, 22.0, 33.0, 44.0))
    assert((b - a).data.toSeq == Seq(9.0, 18.0, 27.0, 36.0))
  }

  test("hadamard multiplies elementwise") {
    val a = Mat(2, 2)(1, 2, 3, 4)
    assert(a.hadamard(a).data.toSeq == Seq(1.0, 4.0, 9.0, 16.0))
  }

  test("addRowVector broadcasts over rows") {
    val a = Mat(2, 3)(1, 1, 1, 2, 2, 2)
    val v = Mat.rowVector(Array(10.0, 20.0, 30.0))
    assert(a.addRowVector(v).data.toSeq == Seq(11.0, 21.0, 31.0, 12.0, 22.0, 32.0))
  }

  test("sumRows collapses to a row vector") {
    val a = Mat(2, 3)(1, 2, 3, 4, 5, 6)
    val s = a.sumRows
    assert(s.rows == 1 && s.data.toSeq == Seq(5.0, 7.0, 9.0))
  }

  test("sumAll sums everything") {
    assert(Mat(2, 2)(1, 2, 3, 4).sumAll == 10.0)
  }

  test("sliceCols extracts a column range") {
    val a = Mat(2, 4)(1, 2, 3, 4, 5, 6, 7, 8)
    val s = a.sliceCols(1, 3)
    assert(s.rows == 2 && s.cols == 2 && s.data.toSeq == Seq(2.0, 3.0, 6.0, 7.0))
  }

  test("row copies one row") {
    val a = Mat(2, 3)(1, 2, 3, 4, 5, 6)
    assert(a.row(1).toSeq == Seq(4.0, 5.0, 6.0))
  }

  test("fromRows stacks rows and rejects ragged input") {
    val m = Mat.fromRows(Seq(Array(1.0, 2.0), Array(3.0, 4.0)))
    assert(m.rows == 2 && m(1, 0) == 3.0)
    intercept[IllegalArgumentException](Mat.fromRows(Seq(Array(1.0), Array(1.0, 2.0))))
  }

  test("scale and map apply pointwise") {
    val a = Mat(1, 3)(1, -2, 3)
    assert(a.scale(2.0).data.toSeq == Seq(2.0, -4.0, 6.0))
    assert(a.map(math.abs).data.toSeq == Seq(1.0, 2.0, 3.0))
  }

  test("randn is deterministic in the rng seed") {
    assert(approxEq(Mat.randn(3, 3, new Rng(4)), Mat.randn(3, 3, new Rng(4))))
  }
}
