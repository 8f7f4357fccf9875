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

  def apply(t: Tape, x: Node): Node = {
    val z = t.addBias(t.matmul(x, t.param(w)), t.param(b))
    activation match {
      case "linear"  => z
      case "relu"    => t.relu(z)
      case "sigmoid" => t.sigmoid(z)
      case "tanh"    => t.tanh(z)
      case other     => throw new IllegalArgumentException(s"unknown activation $other")
    }
  }

  /** Tape-free forward pass with the current weights; equals `apply`'s value. */
  def infer(x: Mat): Mat = {
    val z = (x * w.value).addRowVector(b.value)
    activation match {
      case "linear"  => z
      case "relu"    => z.map(v => if (v > 0) v else 0.0)
      case "sigmoid" => z.map(v => 1.0 / (1.0 + math.exp(-v)))
      case "tanh"    => z.map(math.tanh)
      case other     => throw new IllegalArgumentException(s"unknown activation $other")
    }
  }

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
