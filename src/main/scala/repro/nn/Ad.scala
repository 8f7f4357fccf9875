package repro.nn

import scala.collection.mutable.ArrayBuffer

/** A trainable parameter: value plus accumulated gradient. */
final class Param(val name: String, var value: Mat) {
  var grad: Mat = Mat.zeros(value.rows, value.cols)
  def zeroGrad(): Unit = java.util.Arrays.fill(grad.data, 0.0)
}

/** A node on the autodiff tape. `grad` is allocated lazily on first touch;
  * a constant (`isConst`) never gets one.
  */
final class Node private[nn] (val value: Mat, val isConst: Boolean) {
  private var gradOrNull: Mat = null
  def grad: Mat = { if (gradOrNull == null) gradOrNull = Mat.zeros(value.rows, value.cols); gradOrNull }
  def hasGrad: Boolean = gradOrNull != null
  private[nn] var back: () => Unit = null
}

/** Tape-based reverse-mode autodiff over [[Mat]].
  *
  * One tape per forward pass: build the graph with the op methods below,
  * call [[backward]] on the (1x1) loss node, read gradients off the
  * [[Param]]s, then drop the tape. Every op's gradient is exercised by a
  * numerical-gradient property test in `AdSpec`. Constants (inputs, labels,
  * noise) get no gradient, and the backward pass skips computing it.
  */
final class Tape {
  private val order = ArrayBuffer.empty[Node]

  private def record(v: Mat)(backFn: Node => Unit): Node = {
    val n = new Node(v, isConst = false)
    n.back = () => backFn(n)
    order += n
    n
  }

  /** Adds the gradient `g` to `a`'s, unless `a` is a constant; `g` is then not computed. */
  private def acc(a: Node)(g: => Mat): Unit = if (!a.isConst) a.grad.addInPlace(g)

  /** Constant input — gets no gradient. */
  def const(v: Mat): Node = { val n = new Node(v, isConst = true); order += n; n }

  /** Leaf node backed by a trainable parameter; backward accumulates into `p.grad`. */
  def param(p: Param): Node = record(p.value) { n => if (n.hasGrad) p.grad.addInPlace(n.grad) }

  /** a(r x k) * b(k x c) */
  def matmul(a: Node, b: Node): Node = record(a.value * b.value) { n =>
    acc(a)(n.grad.mulT(b.value))
    acc(b)(a.value.tMul(n.grad))
  }

  /** a * b.T — used by attention score computation. */
  def matmulT(a: Node, b: Node): Node = record(a.value.mulT(b.value)) { n =>
    acc(a)(n.grad * b.value)
    acc(b)(n.grad.tMul(a.value))
  }

  def add(a: Node, b: Node): Node = record(a.value + b.value) { n =>
    acc(a)(n.grad); acc(b)(n.grad)
  }

  def sub(a: Node, b: Node): Node = record(a.value - b.value) { n =>
    acc(a)(n.grad); acc(b)(n.grad.scale(-1.0))
  }

  def mul(a: Node, b: Node): Node = record(a.value.hadamard(b.value)) { n =>
    acc(a)(n.grad.hadamard(b.value))
    acc(b)(n.grad.hadamard(a.value))
  }

  /** Broadcast-add a 1 x cols bias row to every row of `a`. */
  def addBias(a: Node, b: Node): Node = record(a.value.addRowVector(b.value)) { n =>
    acc(a)(n.grad); acc(b)(n.grad.sumRows)
  }

  def scale(a: Node, k: Double): Node = record(a.value.scale(k)) { n =>
    acc(a)(n.grad.scale(k))
  }

  def addConst(a: Node, k: Double): Node = record(a.value.map(_ + k)) { n =>
    acc(a)(n.grad)
  }

  def relu(a: Node): Node = record(a.value.map(x => if (x > 0) x else 0.0)) { n =>
    acc(a)(n.grad.zipWith(a.value, (g, x) => if (x > 0) g else 0.0))
  }

  def sigmoid(a: Node): Node = {
    val s = a.value.map(x => 1.0 / (1.0 + math.exp(-x)))
    record(s) { n => acc(a)(n.grad.zipWith(s, (g, y) => g * y * (1.0 - y))) }
  }

  def tanh(a: Node): Node = {
    val s = a.value.map(math.tanh)
    record(s) { n => acc(a)(n.grad.zipWith(s, (g, y) => g * (1.0 - y * y))) }
  }

  def exp(a: Node): Node = {
    val e = a.value.map(math.exp)
    record(e) { n => acc(a)(n.grad.hadamard(e)) }
  }

  /** Natural log; caller guarantees strictly positive inputs. */
  def log(a: Node): Node = record(a.value.map(math.log)) { n =>
    acc(a)(n.grad.zipWith(a.value, (g, x) => g / x))
  }

  def square(a: Node): Node = record(a.value.map(x => x * x)) { n =>
    acc(a)(n.grad.zipWith(a.value, (g, x) => 2.0 * g * x))
  }

  /** Collapse to a 1x1 scalar. */
  def sumAll(a: Node): Node = record(new Mat(1, 1, Array(a.value.sumAll))) { n =>
    if (!a.isConst) {
      val g = n.grad.data(0)
      var i = 0
      while (i < a.grad.data.length) { a.grad.data(i) += g; i += 1 }
    }
  }

  def meanAll(a: Node): Node = scale(sumAll(a), 1.0 / (a.value.rows * a.value.cols))

  /** Mean over rows → 1 x cols (sequence pooling). */
  def meanRows(a: Node): Node = record(a.value.sumRows.scale(1.0 / a.value.rows)) { n =>
    if (!a.isConst) {
      val inv = 1.0 / a.value.rows
      var i = 0
      while (i < a.value.rows) {
        var j = 0
        while (j < a.value.cols) { a.grad.data(i * a.value.cols + j) += n.grad.data(j) * inv; j += 1 }
        i += 1
      }
    }
  }

  /** Row-wise softmax (attention weights). */
  def softmaxRows(a: Node): Node = {
    val v   = a.value
    val out = Mat.zeros(v.rows, v.cols)
    var i = 0
    while (i < v.rows) {
      var mx = Double.NegativeInfinity
      var j = 0
      while (j < v.cols) { mx = math.max(mx, v(i, j)); j += 1 }
      var s = 0.0
      j = 0
      while (j < v.cols) { val e = math.exp(v(i, j) - mx); out(i, j) = e; s += e; j += 1 }
      j = 0
      while (j < v.cols) { out(i, j) /= s; j += 1 }
      i += 1
    }
    record(out) { n =>
      if (!a.isConst) {
        var r = 0
        while (r < v.rows) {
          var dot = 0.0
          var j = 0
          while (j < v.cols) { dot += n.grad(r, j) * out(r, j); j += 1 }
          j = 0
          while (j < v.cols) { a.grad.data(r * v.cols + j) += out(r, j) * (n.grad(r, j) - dot); j += 1 }
          r += 1
        }
      }
    }
  }

  /** Horizontal concatenation of same-row-count nodes. */
  def concatCols(parts: Seq[Node]): Node = {
    val out   = Mat.concatCols(parts.map(_.value))
    val rows  = out.rows
    val total = out.cols
    record(out) { n =>
      var o = 0
      parts.foreach { p =>
        val c = p.value.cols
        if (!p.isConst) {
          var i = 0
          while (i < rows) {
            var j = 0
            while (j < c) { p.grad.data(i * c + j) += n.grad.data(i * total + o + j); j += 1 }
            i += 1
          }
        }
        o += c
      }
    }
  }

  def sliceCols(a: Node, from: Int, until: Int): Node =
    record(a.value.sliceCols(from, until)) { n =>
      if (!a.isConst) {
        val w = until - from
        var i = 0
        while (i < a.value.rows) {
          var j = 0
          while (j < w) { a.grad.data(i * a.value.cols + from + j) += n.grad.data(i * w + j); j += 1 }
          i += 1
        }
      }
    }

  /** Contiguous row slice [from, until) of a node. */
  def sliceRows(a: Node, from: Int, until: Int): Node = {
    val c   = a.value.cols
    val h   = until - from
    val out = new Mat(h, c, java.util.Arrays.copyOfRange(a.value.data, from * c, until * c))
    record(out) { n =>
      if (!a.isConst) {
        var i = 0
        while (i < h * c) { a.grad.data(from * c + i) += n.grad.data(i); i += 1 }
      }
    }
  }

  /** Vertical concatenation of same-col-count nodes (batch assembly). */
  def concatRows(parts: Seq[Node]): Node = {
    val out = Mat.concatRows(parts.map(_.value))
    val c   = out.cols
    record(out) { n =>
      var o = 0
      parts.foreach { p =>
        if (!p.isConst) {
          val sz = p.value.rows * c
          var i = 0
          while (i < sz) { p.grad.data(i) += n.grad.data(o * c + i); i += 1 }
        }
        o += p.value.rows
      }
    }
  }

  /** Row-gather from a parameter (embedding lookup); backward scatter-adds. */
  def gather(p: Param, idx: Array[Int]): Node = {
    val d   = p.value.cols
    val out = Mat.zeros(idx.length, d)
    var i = 0
    while (i < idx.length) { System.arraycopy(p.value.data, idx(i) * d, out.data, i * d, d); i += 1 }
    record(out) { n =>
      var r = 0
      while (r < idx.length) {
        var j = 0
        while (j < d) { p.grad.data(idx(r) * d + j) += n.grad.data(r * d + j); j += 1 }
        r += 1
      }
    }
  }

  /** Run reverse-mode accumulation from a 1x1 loss node. */
  def backward(loss: Node): Unit = {
    require(loss.value.rows == 1 && loss.value.cols == 1, "backward expects a scalar loss")
    loss.grad.data(0) = 1.0
    var i = order.length - 1
    while (i >= 0) {
      val n = order(i)
      if (n.back != null && n.hasGrad) n.back()
      i -= 1
    }
  }
}
