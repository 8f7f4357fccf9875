package repro.nn

/** A layer's pointwise activation y = f(z).
  *
  * The product kernel applies it, after the bias, to each finished output row
  * ([[Mat.gemm]]); the tape differentiates it from the output y alone, so a
  * fused layer need not keep z.
  */
sealed abstract class Activation(val name: String) {

  /** f(z). */
  def apply(z: Double): Double

  /** out(off + j) = f(acc(j) + bias(j)) for every j: the same arithmetic as
    * adding the bias row and then mapping f.
    */
  private[nn] def addBiasApply(acc: Array[Double], bias: Array[Double], out: Array[Double], off: Int): Unit

  /** ∂L/∂z from g = ∂L/∂y and the output y. */
  private[nn] def backprop(g: Mat, y: Mat): Mat
}

object Activation {

  /** Each activation writes its own loop, so that f is a static call in it. */
  case object Linear extends Activation("linear") {
    def apply(z: Double): Double = z
    private[nn] def addBiasApply(acc: Array[Double], bias: Array[Double], out: Array[Double], off: Int): Unit = {
      var j = 0
      while (j < acc.length) { out(off + j) = acc(j) + bias(j); j += 1 }
    }
    private[nn] def backprop(g: Mat, y: Mat): Mat = g
  }

  /** y > 0 exactly when z > 0, so the mask read from y is the mask of z. */
  case object Relu extends Activation("relu") {
    def apply(z: Double): Double = if (z > 0) z else 0.0
    private[nn] def addBiasApply(acc: Array[Double], bias: Array[Double], out: Array[Double], off: Int): Unit = {
      var j = 0
      while (j < acc.length) { out(off + j) = apply(acc(j) + bias(j)); j += 1 }
    }
    private[nn] def backprop(g: Mat, y: Mat): Mat = g.zipWith(y, (g, y) => if (y > 0) g else 0.0)
  }

  case object Sigmoid extends Activation("sigmoid") {
    def apply(z: Double): Double = 1.0 / (1.0 + math.exp(-z))
    private[nn] def addBiasApply(acc: Array[Double], bias: Array[Double], out: Array[Double], off: Int): Unit = {
      var j = 0
      while (j < acc.length) { out(off + j) = apply(acc(j) + bias(j)); j += 1 }
    }
    private[nn] def backprop(g: Mat, y: Mat): Mat = g.zipWith(y, (g, y) => g * y * (1.0 - y))
  }

  case object Tanh extends Activation("tanh") {
    def apply(z: Double): Double = math.tanh(z)
    private[nn] def addBiasApply(acc: Array[Double], bias: Array[Double], out: Array[Double], off: Int): Unit = {
      var j = 0
      while (j < acc.length) { out(off + j) = apply(acc(j) + bias(j)); j += 1 }
    }
    private[nn] def backprop(g: Mat, y: Mat): Mat = g.zipWith(y, (g, y) => g * (1.0 - y * y))
  }

  /** The activation called `name`; throws IllegalArgumentException for an unknown one. */
  def apply(name: String): Activation = name match {
    case "linear"  => Linear
    case "relu"    => Relu
    case "sigmoid" => Sigmoid
    case "tanh"    => Tanh
    case other     => throw new IllegalArgumentException(s"unknown activation $other")
  }
}
