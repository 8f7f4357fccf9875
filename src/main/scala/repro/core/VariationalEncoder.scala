package repro.core

import repro.nn._

/** The variational encoder of §III: an IR goes through a ReLU hidden layer
  * to the mean and log-variance of a diagonal Gaussian. [[VaeModel]] trains
  * it; [[Siamese]] embeds both tuples of a pair with one copy of it (§IV).
  */
final class VariationalEncoder(cfg: VaerConfig, rng: Rng) extends Module {
  val hidden: Dense = new Dense(cfg.irDim, cfg.hidden, rng, "relu", "enc.h")
  val mu: Dense     = new Dense(cfg.hidden, cfg.latent, rng, "linear", "enc.mu")
  val logVar: Dense = new Dense(cfg.hidden, cfg.latent, rng, "linear", "enc.lv")

  override def params: Seq[Param] = Seq(hidden, mu, logVar).flatMap(_.params)

  /** Tape pass: (μ, log σ²) nodes. */
  def apply(t: Tape, x: Node): (Node, Node) = {
    val h = hidden(t, x)
    (mu(t, h), logVar(t, h))
  }

  /** σ = exp(½ log σ²) on the tape. */
  def sigma(t: Tape, lv: Node): Node = t.exp(t.scale(lv, 0.5))

  /** Tape-free pass with the current weights: (μ, σ) matrices. */
  def infer(x: Mat): (Mat, Mat) = {
    val h = hidden.infer(x)
    (mu.infer(h), logVar.infer(h).map(v => math.exp(0.5 * v)))
  }
}
