package repro.nn

/** A trainable module is just a bag of named parameters. */
trait Module {
  def params: Seq[Param]
  def zeroGrads(): Unit = params.foreach(_.zeroGrad())

  /** Deep-copy the parameter values (used for weight transfer / snapshots). */
  def snapshot(): Seq[Mat] = params.map(_.value.copy())
  def restore(snap: Seq[Mat]): Unit = {
    require(snap.length == params.length, "snapshot arity mismatch")
    params.zip(snap).foreach { case (p, m) => p.value = m.copy() }
  }
}

/** Fully-connected layer `y = act(x W + b)` with He-scaled init. */
final class Dense(val in: Int, val out: Int, rng: Rng,
                  val activation: String = "linear", name: String = "dense")
    extends Module {
  val w: Param = new Param(s"$name.w", Mat.randn(in, out, rng, math.sqrt(2.0 / in)))
  val b: Param = new Param(s"$name.b", Mat.zeros(1, out))

  /** One tape node; throws IllegalArgumentException for an unknown activation. */
  def apply(t: Tape, x: Node): Node = t.dense(x, w, b, Activation(activation))

  /** Tape-free forward pass with the current weights; equals `apply`'s value. */
  def infer(x: Mat): Mat = Mat.gemm(x, false, w.value, false, b.value, Activation(activation))

  override def params: Seq[Param] = Seq(w, b)
}

/** Stack of Dense layers; `activations` aligns with `sizes.tail`. */
final class Mlp(sizes: Seq[Int], activations: Seq[String], rng: Rng, name: String = "mlp")
    extends Module {
  require(sizes.length >= 2 && activations.length == sizes.length - 1,
    s"Mlp sizes=$sizes activations=$activations")
  val layers: Seq[Dense] = sizes.sliding(2).toSeq.zip(activations).zipWithIndex.map {
    case ((Seq(i, o), act), k) => new Dense(i, o, rng, act, s"$name.$k")
  }

  def apply(t: Tape, x: Node): Node = layers.foldLeft(x)((h, l) => l(t, h))

  def infer(x: Mat): Mat = layers.foldLeft(x)((h, l) => l.infer(h))

  override def params: Seq[Param] = layers.flatMap(_.params)
}

/** Trainable token-embedding table (used by the end-to-end baselines). */
final class EmbeddingTable(val vocab: Int, val dim: Int, rng: Rng, name: String = "emb")
    extends Module {
  val table: Param = new Param(s"$name.table", Mat.randn(vocab, dim, rng, 0.1))

  def apply(t: Tape, idx: Array[Int]): Node = t.gather(table, idx)

  override def params: Seq[Param] = Seq(table)
}

/** Vanilla recurrent cell `h_t = tanh(x_t W + h_{t-1} U + b)` from h = 0 (used by the baselines). */
final class Rnn(val dim: Int, rng: Rng, name: String = "rnn") extends Module {
  val w: Param = new Param(s"$name.w", Mat.randn(dim, dim, rng, math.sqrt(1.0 / dim)))
  val u: Param = new Param(s"$name.u", Mat.randn(dim, dim, rng, math.sqrt(1.0 / dim)))
  val b: Param = new Param(s"$name.b", Mat.zeros(1, dim))

  /** Runs the cell over the rows of `x` in order; returns the final state. */
  def apply(t: Tape, x: Node): Node = {
    var h = t.const(Mat.zeros(1, dim))
    var i = 0
    while (i < x.value.rows) {
      val xi = t.sliceRows(x, i, i + 1)
      h = t.tanh(t.add(t.add(t.matmul(xi, t.param(w)), t.matmul(h, t.param(u))), t.param(b)))
      i += 1
    }
    h
  }

  override def params: Seq[Param] = Seq(w, u, b)
}
