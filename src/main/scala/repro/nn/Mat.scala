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

  /** Matrix product this(r x k) * that(k x c), cache-friendly i-k-j order. */
  def *(that: Mat): Mat = {
    require(cols == that.rows, s"matmul ${rows}x$cols * ${that.rows}x${that.cols}")
    val out = Mat.zeros(rows, that.cols)
    val n   = that.cols
    var i = 0
    while (i < rows) {
      var k = 0
      while (k < cols) {
        val a = data(i * cols + k)
        if (a != 0.0) {
          val bOff = k * n; val oOff = i * n
          var j = 0
          while (j < n) { out.data(oOff + j) += a * that.data(bOff + j); j += 1 }
        }
        k += 1
      }
      i += 1
    }
    out
  }

  /** this * that.T without materializing the transpose. */
  def mulT(that: Mat): Mat = {
    require(cols == that.cols, s"mulT ${rows}x$cols * (${that.rows}x${that.cols}).T")
    val out = Mat.zeros(rows, that.rows)
    var i = 0
    while (i < rows) {
      var j = 0
      while (j < that.rows) {
        var s = 0.0; var k = 0
        while (k < cols) { s += data(i * cols + k) * that.data(j * cols + k); k += 1 }
        out.data(i * out.cols + j) = s
        j += 1
      }
      i += 1
    }
    out
  }

  /** this.T * that without materializing the transpose. */
  def tMul(that: Mat): Mat = {
    require(rows == that.rows, s"tMul (${rows}x$cols).T * ${that.rows}x${that.cols}")
    val out = Mat.zeros(cols, that.cols)
    val n   = that.cols
    var k = 0
    while (k < rows) {
      var i = 0
      while (i < cols) {
        val a = data(k * cols + i)
        if (a != 0.0) {
          val bOff = k * n; val oOff = i * n
          var j = 0
          while (j < n) { out.data(oOff + j) += a * that.data(bOff + j); j += 1 }
        }
        i += 1
      }
      k += 1
    }
    out
  }

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

  def rowVector(values: Array[Double]): Mat = new Mat(1, values.length, values.clone())

  /** Gaussian init scaled by `std` (He/Xavier chosen by the caller). */
  def randn(rows: Int, cols: Int, rng: Rng, std: Double = 1.0): Mat = {
    val out = new Array[Double](rows * cols)
    var i = 0
    while (i < out.length) { out(i) = rng.nextGaussian() * std; i += 1 }
    new Mat(rows, cols, out)
  }
}
