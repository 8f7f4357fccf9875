package repro.nn

/** Dense row-major matrix with the handful of BLAS-lite kernels the
  * reproduction's neural models need. Mutability is deliberate — the autodiff
  * tape accumulates gradients in place — but all public combinators return
  * fresh matrices.
  */
final class Mat(val rows: Int, val cols: Int, val data: Array[Double]) {
  require(data.length == rows * cols, s"shape ${rows}x$cols != data ${data.length}")

  @inline def apply(r: Int, c: Int): Double = data(r * cols + c)
  @inline def update(r: Int, c: Int, v: Double): Unit = data(r * cols + c) = v

  def copy(): Mat = new Mat(rows, cols, data.clone())

  /** Matrix product this(r x k) * that(k x c), through [[Mat.gemm]]. */
  def *(that: Mat): Mat = Mat.gemm(this, false, that, false, null, Activation.Linear)

  /** this * that.T, without building that.T. */
  def mulT(that: Mat): Mat = Mat.gemm(this, false, that, true, null, Activation.Linear)

  /** this.T * that, without building this.T. */
  def tMul(that: Mat): Mat = Mat.gemm(this, true, that, false, null, Activation.Linear)

  def t: Mat = {
    val out = Mat.zeros(cols, rows)
    var i = 0
    while (i < rows) { var j = 0; while (j < cols) { out.data(j * rows + i) = data(i * cols + j); j += 1 }; i += 1 }
    out
  }

  def +(that: Mat): Mat = zipWith(that, _ + _)
  def -(that: Mat): Mat = zipWith(that, _ - _)
  def hadamard(that: Mat): Mat = zipWith(that, _ * _)

  def zipWith(that: Mat, f: (Double, Double) => Double): Mat = {
    require(rows == that.rows && cols == that.cols,
      s"shape mismatch ${rows}x$cols vs ${that.rows}x${that.cols}")
    val out = new Array[Double](data.length)
    var i = 0
    while (i < out.length) { out(i) = f(data(i), that.data(i)); i += 1 }
    new Mat(rows, cols, out)
  }

  def map(f: Double => Double): Mat = {
    val out = new Array[Double](data.length)
    var i = 0
    while (i < out.length) { out(i) = f(data(i)); i += 1 }
    new Mat(rows, cols, out)
  }

  def scale(a: Double): Mat = map(_ * a)

  def addInPlace(that: Mat): Unit = {
    require(rows == that.rows && cols == that.cols, "addInPlace shape mismatch")
    var i = 0
    while (i < data.length) { data(i) += that.data(i); i += 1 }
  }

  /** Add a 1 x cols row vector to every row. */
  def addRowVector(v: Mat): Mat = {
    require(v.rows == 1 && v.cols == cols, s"row vector 1x$cols expected, got ${v.rows}x${v.cols}")
    val out = new Array[Double](data.length)
    var i = 0
    while (i < rows) {
      var j = 0
      while (j < cols) { out(i * cols + j) = data(i * cols + j) + v.data(j); j += 1 }
      i += 1
    }
    new Mat(rows, cols, out)
  }

  /** Column-sum collapsed to a 1 x cols row vector. */
  def sumRows: Mat = {
    val out = new Array[Double](cols)
    var i = 0
    while (i < rows) { var j = 0; while (j < cols) { out(j) += data(i * cols + j); j += 1 }; i += 1 }
    new Mat(1, cols, out)
  }

  def sumAll: Double = { var s = 0.0; var i = 0; while (i < data.length) { s += data(i); i += 1 }; s }

  def row(r: Int): Array[Double] = java.util.Arrays.copyOfRange(data, r * cols, (r + 1) * cols)

  private def column(c: Int): Array[Double] = {
    val out = new Array[Double](rows)
    var i = 0
    while (i < rows) { out(i) = data(i * cols + c); i += 1 }
    out
  }

  def sliceCols(from: Int, until: Int): Mat = {
    val w   = until - from
    val out = new Array[Double](rows * w)
    var i = 0
    while (i < rows) { System.arraycopy(data, i * cols + from, out, i * w, w); i += 1 }
    new Mat(rows, w, out)
  }

  def frobenius: Double = math.sqrt(data.map(x => x * x).sum)

  override def toString: String =
    s"Mat(${rows}x$cols, [${data.take(6).map(d => f"$d%.4f").mkString(", ")}${if (data.length > 6) ", …" else ""}])"
}

object Mat {

  /** Processors the row split of [[Mat.*]] spreads over. */
  private[nn] val Parallelism: Int = Runtime.getRuntime.availableProcessors

  /** Products of at least this many multiply-adds split their rows; smaller
    * ones cost less than handing rows to other threads (the measured
    * crossover and the products on each side are in DESIGN.md §5).
    */
  private[nn] val ParallelWork: Long = 1L << 18

  /** Row blocks per split product: a few per processor, so a busy core's
    * blocks are taken by idle ones.
    */
  private val Blocks: Int = 4 * Parallelism

  /** act(op(a) · op(b) + bias), the one product kernel, where op(m) is mᵀ
    * when m's flag is set and m otherwise; a null bias adds nothing and
    * applies no activation.
    *
    * Row i of the result adds op(a)(i, p) · op(b)(p, ·) in ascending p,
    * skipping zero op(a)(i, p) (ReLU activations are sparse), then adds the
    * bias and applies `act` to the finished row. Rows are independent, so
    * products of at least [[ParallelWork]] multiply-adds split their rows
    * over the ForkJoin pool; each row is still computed by one task in the
    * same order, and the result does not depend on the thread count.
    */
  private[nn] def gemm(a: Mat, aT: Boolean, b: Mat, bT: Boolean, bias: Mat, act: Activation): Mat = {
    val (m, k) = if (aT) (a.cols, a.rows) else (a.rows, a.cols)
    val (kb, n) = if (bT) (b.cols, b.rows) else (b.rows, b.cols)
    require(k == kb, s"matmul ${m}x$k * ${kb}x$n")
    require(if (bias == null) act == Activation.Linear else bias.rows == 1 && bias.cols == n,
      s"a 1x$n bias is needed with ${act.name}")
    product(a, aT, b, bT, bias, act, m > 1 && Parallelism > 1 && m.toLong * k * n >= ParallelWork)
  }

  /** [[gemm]] without its checks, its rows split over the ForkJoin pool when `split`.
    *
    * op(b)'s rows are copied once into their own arrays, shared read-only by
    * every row block, so that the kernel's inner loop ([[axpy]]) reads both
    * arrays at the same index from 0: that is the loop shape HotSpot's C2
    * vectorizes, which it does not do for two arrays read at two different
    * offsets. op(a) is read in place, a transposed one with a stride. Each
    * output element still gets the same additions in the same ascending
    * order, so the result is bit-identical to the plain i-k-j loop over
    * materialized transposes, followed by a bias add and a map (DESIGN.md §5).
    */
  private[nn] def product(a: Mat, aT: Boolean, b: Mat, bT: Boolean, bias: Mat, act: Activation, split: Boolean): Mat = {
    val out   = zeros(if (aT) a.cols else a.rows, if (bT) b.rows else b.cols)
    val bRows = if (bT) Array.tabulate(b.cols)(b.column) else Array.tabulate(b.rows)(b.row)
    val rows  = new Rows(a, aT, bRows, if (bias == null) null else bias.data, act, out)
    if (split) new RowBlock(rows, 0, out.rows, (out.rows + Blocks - 1) / Blocks).invoke()
    else rows.compute(0, out.rows)
    out
  }

  /** The rows of one product: op(a) and op(b) given by its rows, written into `out`. */
  private final class Rows(a: Mat, aT: Boolean, bRows: Array[Array[Double]], bias: Array[Double],
                           act: Activation, out: Mat) {

    /** Rows [from, until) of the result. Each row is summed in one accumulator
      * and then copied, or passed through the bias and activation, into `out`.
      */
    def compute(from: Int, until: Int): Unit = {
      val ad = a.data; val od = out.data
      val k = bRows.length; val n = out.cols
      // op(a)(i, p) is ad(i * rowStep + p * colStep)
      val rowStep = if (aT) 1 else a.cols
      val colStep = if (aT) a.cols else 1
      val acc = new Array[Double](n)
      var i = from
      while (i < until) {
        java.util.Arrays.fill(acc, 0.0)
        var q = i * rowStep
        var p = 0
        while (p < k) {
          val av = ad(q)
          if (av != 0.0) axpy(av, bRows(p), acc)
          q += colStep
          p += 1
        }
        if (bias == null) System.arraycopy(acc, 0, od, i * n, n)
        else act.addBiasApply(acc, bias, od, i * n)
        i += 1
      }
    }
  }

  /** y += a · x, element by element from index 0. */
  private def axpy(a: Double, x: Array[Double], y: Array[Double]): Unit = {
    var j = 0
    while (j < y.length) { y(j) += a * x(j); j += 1 }
  }

  /** Rows [from, until) of a product, halved until at most `grain` rows.
    * Forked halves go to the caller's ForkJoin pool, or to the common pool
    * when the caller is not a pool worker, so nested parallel callers
    * neither deadlock nor add threads.
    */
  private final class RowBlock(rows: Rows, from: Int, until: Int, grain: Int)
      extends java.util.concurrent.RecursiveAction {
    override def compute(): Unit =
      if (until - from <= grain) rows.compute(from, until)
      else {
        val mid = (from + until) >>> 1
        java.util.concurrent.ForkJoinTask.invokeAll(
          new RowBlock(rows, from, mid, grain), new RowBlock(rows, mid, until, grain))
      }
  }

  def zeros(rows: Int, cols: Int): Mat = new Mat(rows, cols, new Array[Double](rows * cols))

  def apply(rows: Int, cols: Int)(values: Double*): Mat = {
    require(values.length == rows * cols, "literal size mismatch")
    new Mat(rows, cols, values.toArray)
  }

  def fromRows(rows: Seq[Array[Double]]): Mat = {
    require(rows.nonEmpty, "fromRows needs at least one row")
    val c   = rows.head.length
    val out = new Array[Double](rows.length * c)
    var i = 0
    rows.foreach { r => require(r.length == c, "ragged rows"); System.arraycopy(r, 0, out, i * c, c); i += 1 }
    new Mat(rows.length, c, out)
  }

  /** Horizontal concatenation of same-row-count matrices. */
  def concatCols(parts: Seq[Mat]): Mat = {
    require(parts.nonEmpty, "concatCols of nothing")
    val rows = parts.head.rows
    require(parts.forall(_.rows == rows), "concatCols row mismatch")
    val total = parts.map(_.cols).sum
    val out   = zeros(rows, total)
    var off = 0
    parts.foreach { p =>
      var i = 0
      while (i < rows) { System.arraycopy(p.data, i * p.cols, out.data, i * total + off, p.cols); i += 1 }
      off += p.cols
    }
    out
  }

  /** Vertical concatenation of same-col-count matrices. */
  def concatRows(parts: Seq[Mat]): Mat = {
    require(parts.nonEmpty, "concatRows of nothing")
    val cols = parts.head.cols
    require(parts.forall(_.cols == cols), "concatRows col mismatch")
    val out = zeros(parts.map(_.rows).sum, cols)
    var off = 0
    parts.foreach { p => System.arraycopy(p.data, 0, out.data, off, p.data.length); off += p.data.length }
    out
  }

  def rowVector(values: Array[Double]): Mat = new Mat(1, values.length, values.clone())

  /** Gaussian init scaled by `std` (He/Xavier chosen by the caller). */
  def randn(rows: Int, cols: Int, rng: Rng, std: Double = 1.0): Mat = {
    val out = new Array[Double](rows * cols)
    var i = 0
    while (i < out.length) { out(i) = rng.nextGaussian() * std; i += 1 }
    new Mat(rows, cols, out)
  }
}
