package repro.core

import repro.nn._

/** The entity-representation VAE of §III (Figure 2).
  *
  * One encoder/decoder pair with parameters *shared across attributes*:
  * every attribute IR of every tuple is a training sample. The encoder maps
  * an IR to the mean and log-variance of a diagonal Gaussian; the decoder
  * reconstructs the IR from a reparameterized sample. Loss = reconstruction
  * SSE + KL(q(z|IR) ‖ N(0, I)) (Eq. 2).
  */
final class VaeModel(val cfg: VaerConfig, rng: Rng) extends Module {
  val encoder: VariationalEncoder = new VariationalEncoder(cfg, rng)
  val decoder: Mlp = new Mlp(Seq(cfg.latent, cfg.hidden, cfg.irDim), Seq("relu", "linear"), rng, "dec")

  override def params: Seq[Param] = encoder.params ++ decoder.params

  /** Deterministic batch encode with current weights: (mu, sigma) matrices. */
  def encodeBatch(x: Mat): (Mat, Mat) = encoder.infer(x)

  /** Deterministic batch decode (for reconstruction tests). */
  def decodeBatch(z: Mat): Mat = decoder.infer(z)

  /** One training step on a minibatch of IRs; returns (total, recon, kl) losses. */
  def step(batch: Mat, adam: Adam, noise: Rng, klWeight: Double = 1.0): (Double, Double, Double) = {
    val t = new Tape
    val x = t.const(batch)
    val (mu, lv) = encoder(t, x)
    val eps   = t.const(Mat.randn(batch.rows, cfg.latent, noise))
    val z     = t.add(mu, t.mul(encoder.sigma(t, lv), eps))
    val recon = decoder(t, z)

    val reconLoss = t.sumAll(t.square(t.sub(recon, x)))
    // KL(N(mu, sigma) || N(0, I)) = -0.5 * sum(1 + lv - mu^2 - exp(lv))
    val klInner = t.sub(t.sub(t.addConst(lv, 1.0), t.square(mu)), t.exp(lv))
    val kl      = t.scale(t.sumAll(klInner), -0.5)
    val loss    = t.scale(t.add(reconLoss, t.scale(kl, klWeight)), 1.0 / batch.rows)

    t.backward(loss)
    adam.step(params)
    (loss.value.data(0), reconLoss.value.data(0) / batch.rows, kl.value.data(0) / batch.rows)
  }

  /** Full training loop over a sample set of IRs; returns per-epoch mean loss. */
  def train(samples: IndexedSeq[Array[Double]], rng: Rng, klWeight: Double = 1.0): Seq[Double] = {
    val adam = new Adam(cfg.lr)
    Minibatch.run(samples, cfg.vaeBatch, cfg.vaeEpochs, rng)(b => step(Mat.fromRows(b), adam, rng, klWeight)._1)
  }
}
