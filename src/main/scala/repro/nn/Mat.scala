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

  /** Matrix product this(r x k) * that(k x c), the one product kernel.
    *
    * Row i of the result adds this(i, k) · that(k, ·) in ascending k,
    * skipping zero this(i, k) (ReLU activations are sparse). Rows are
    * independent, so products of at least [[Mat.ParallelWork]] multiply-adds
    * split their rows over the ForkJoin pool; each row is still computed by
    * one task in the same order, and the result does not depend on the
    * thread count.
    */
  def *(that: Mat): Mat = {
    require(cols == that.rows, s"matmul ${rows}x$cols * ${that.rows}x${that.cols}")
    val out = Mat.zeros(rows, that.cols)
    if (rows > 1 && Mat.Parallelism > 1 && rows.toLong * cols * that.cols >= Mat.ParallelWork)
      new Mat.RowBlock(this, that, out, 0, rows, (rows + Mat.Blocks - 1) / Mat.Blocks).invoke()
    else Mat.mulRows(this, that, out, 0, rows)
    out
  }

  /** this * that.T */
  def mulT(that: Mat): Mat = this * that.t

  /** this.T * that */
  def tMul(that: Mat): Mat = t * that

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

  /** Rows [from, until) of a * b, written into the same rows of `out`. */
  private def mulRows(a: Mat, b: Mat, out: Mat, from: Int, until: Int): Unit = {
    val ad = a.data; val bd = b.data; val od = out.data
    val k = a.cols; val n = b.cols
    var i = from
    while (i < until) {
      val aOff = i * k; val oOff = i * n
      var p = 0
      while (p < k) {
        val av = ad(aOff + p)
        if (av != 0.0) {
          val bOff = p * n
          var j = 0
          while (j < n) { od(oOff + j) += av * bd(bOff + j); j += 1 }
        }
        p += 1
      }
      i += 1
    }
  }

  /** Rows [from, until) of a * b, halved until at most `grain` rows. Forked
    * halves go to the caller's ForkJoin pool, or to the common pool when the
    * caller is not a pool worker, so nested parallel callers neither
    * deadlock nor add threads.
    */
  private final class RowBlock(a: Mat, b: Mat, out: Mat, from: Int, until: Int, grain: Int)
      extends java.util.concurrent.RecursiveAction {
    override def compute(): Unit =
      if (until - from <= grain) mulRows(a, b, out, from, until)
      else {
        val mid = (from + until) >>> 1
        java.util.concurrent.ForkJoinTask.invokeAll(
          new RowBlock(a, b, out, from, mid, grain), new RowBlock(a, b, out, mid, until, grain))
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
