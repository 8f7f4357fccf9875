package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.nn.{Adam, Mat, Rng}

class VaeModelSpec extends AnyFunSuite {

  private val cfg = VaerConfig(irDim = 8, hidden = 16, latent = 4, vaeEpochs = 30, vaeBatch = 16)

  /** Two well-separated clusters of IR-like vectors. */
  private def clusterSamples(n: Int, seed: Long): IndexedSeq[Array[Double]] = {
    val rng = new Rng(seed)
    IndexedSeq.tabulate(n) { i =>
      val center = if (i % 2 == 0) 1.0 else -1.0
      Array.fill(8)(center + rng.nextGaussian() * 0.1)
    }
  }

  test("training reduces the loss") {
    val rng = new Rng(1)
    val vae = new VaeModel(cfg, rng.split())
    val losses = vae.train(clusterSamples(128, 2), rng.split())
    assert(losses.head > losses.last, s"first=${losses.head} last=${losses.last}")
  }

  test("KL term matches the closed form for N(mu, sigma) vs N(0, I)") {
    val rng = new Rng(3)
    val vae = new VaeModel(cfg, rng.split())
    val batch = Mat.fromRows(clusterSamples(4, 4))
    // compute mu/lv deterministically and verify the node value
    val (mu, sigma) = vae.encodeBatch(batch)
    var expected = 0.0
    for (i <- 0 until mu.rows; j <- 0 until mu.cols) {
      val m = mu(i, j); val s2 = sigma(i, j) * sigma(i, j)
      expected += -0.5 * (1.0 + math.log(s2) - m * m - s2)
    }
    // replicate the step's KL computation symbolically
    val t = new repro.nn.Tape
    val x = t.const(batch)
    val (muN, lvN) = vae.encoder(t, x)
    val klInner = t.sub(t.sub(t.addConst(lvN, 1.0), t.square(muN)), t.exp(lvN))
    val kl = t.scale(t.sumAll(klInner), -0.5)
    assert(math.abs(kl.value.data(0) - expected) < 1e-8)
  }

  test("reconstruction after training is closer than before") {
    val rng = new Rng(5)
    val samples = clusterSamples(128, 6)
    val vae = new VaeModel(cfg, rng.split())
    val x = Mat.fromRows(samples.take(16))
    def reconError(): Double = {
      val (mu, _) = vae.encodeBatch(x)
      val rec = vae.decodeBatch(mu)
      (rec - x).frobenius
    }
    val before = reconError()
    vae.train(samples, rng.split())
    val after = reconError()
    assert(after < before * 0.5, s"before=$before after=$after")
  }

  test("encoder separates the clusters in latent mu space") {
    val rng = new Rng(7)
    val samples = clusterSamples(128, 8)
    val vae = new VaeModel(cfg, rng.split())
    vae.train(samples, rng.split())
    val (mu, _) = vae.encodeBatch(Mat.fromRows(samples.take(32)))
    // distance between same-cluster latents < cross-cluster
    def dist(i: Int, j: Int): Double = {
      var s = 0.0
      (0 until mu.cols).foreach(c => { val d = mu(i, c) - mu(j, c); s += d * d })
      math.sqrt(s)
    }
    val same  = (0 until 16 by 2).map(i => dist(i, (i + 2) % 32)).sum / 8
    val cross = (0 until 16 by 2).map(i => dist(i, i + 1)).sum / 8
    assert(same < cross, s"same=$same cross=$cross")
  }

  test("sigma output is strictly positive") {
    val vae = new VaeModel(cfg, new Rng(9))
    val (_, sigma) = vae.encodeBatch(Mat.randn(10, 8, new Rng(10)))
    assert(sigma.data.forall(_ > 0.0))
  }

  test("training is deterministic in the seeds") {
    def run(): Seq[Double] = {
      val rng = new Rng(11)
      val vae = new VaeModel(cfg.copy(vaeEpochs = 3), rng.split())
      vae.train(clusterSamples(64, 12), rng.split())
    }
    assert(run() == run())
  }

  test("step returns consistent decomposition (loss = recon + kl per sample)") {
    val rng = new Rng(13)
    val vae = new VaeModel(cfg, rng.split())
    val (total, recon, kl) = vae.step(Mat.fromRows(clusterSamples(8, 14)), new Adam(0.001), rng.split())
    assert(math.abs(total - (recon + kl)) < 1e-9)
    assert(recon > 0 && kl >= 0)
  }
}
