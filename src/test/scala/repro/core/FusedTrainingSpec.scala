package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.nn.{Adam, Mat, Minibatch, Module, Node, PrimitiveGraphs, Rng, Tape}

/** Training on the fused tape ops ends at the same weights, bit for bit, as
  * training on graphs built from the primitive ops, one node per step.
  */
class FusedTrainingSpec extends AnyFunSuite {

  /** Products of the stacked matcher batch (2·3·32 rows x 64 x 64) and of a full VAE batch split. */
  private val cfg = VaerConfig(vaeEpochs = 2, matchEpochs = 2, matchMinSteps = 8)

  private def irs(n: Int, seed: Long): IndexedSeq[Array[Double]] = {
    val rng = new Rng(seed)
    IndexedSeq.fill(n)(Array.fill(cfg.irDim)(rng.nextGaussian()))
  }

  private def assertSameWeights(a: Module, b: Module): Unit =
    a.params.zip(b.params).foreach { case (p, q) =>
      assert(java.util.Arrays.equals(p.value.data, q.value.data), p.name)
    }

  private def encode(t: Tape, enc: VariationalEncoder, x: Node): (Node, Node) = {
    val h = PrimitiveGraphs.dense(t, x, enc.hidden)
    (PrimitiveGraphs.dense(t, h, enc.mu), PrimitiveGraphs.dense(t, h, enc.logVar))
  }

  test("Siamese.train ends at the weights of the primitive-op graph") {
    val arity = 3
    val pool  = irs(2 * arity * 40, 1).grouped(2 * arity).toIndexedSeq.zipWithIndex.map { case (g, i) =>
      PairExample(g.take(arity).toArray, g.drop(arity).toArray, i % 2)
    }
    val fused = new Siamese(cfg, arity, new Rng(2))
    val ref   = new Siamese(cfg, arity, new Rng(2))
    fused.train(pool, new Rng(3))

    val adam = new Adam(cfg.lr)
    val batchesPerEpoch = (pool.length + cfg.matchBatch - 1) / cfg.matchBatch
    val epochs = math.max(cfg.matchEpochs, (cfg.matchMinSteps + batchesPerEpoch - 1) / batchesPerEpoch)
    Minibatch.run(pool, cfg.matchBatch, epochs, new Rng(3)) { chunk =>
      val t  = new Tape
      val sB = IndexedSeq.tabulate(arity)(ai => Mat.fromRows(chunk.map(_.sIrs(ai))))
      val tB = IndexedSeq.tabulate(arity)(ai => Mat.fromRows(chunk.map(_.tIrs(ai))))
      val (mu, lv) = encode(t, ref.encoder, t.const(Mat.concatRows(sB ++ tB)))
      val (dist, w2s) = PrimitiveGraphs.w2(t, mu, ref.encoder.sigma(t, lv), arity)
      val prob = t.sigmoid(PrimitiveGraphs.mlp(t, dist, ref.classifier))
      val loss = ref.lossNode(t, prob, w2s, chunk.map(_.label.toDouble).toArray)
      t.backward(loss)
      adam.step(ref.params)
      loss.value.data(0)
    }
    assertSameWeights(fused, ref)
  }

  test("VaeModel.train ends at the weights of the primitive-op graph") {
    val samples = irs(150, 4)
    val fused = new VaeModel(cfg, new Rng(5))
    val ref   = new VaeModel(cfg, new Rng(5))
    fused.train(samples, new Rng(6))

    val adam = new Adam(cfg.lr)
    val rng  = new Rng(6)
    Minibatch.run(samples, cfg.vaeBatch, cfg.vaeEpochs, rng) { rows =>
      val batch = Mat.fromRows(rows)
      val t = new Tape
      val x = t.const(batch)
      val (mu, lv) = encode(t, ref.encoder, x)
      val eps   = t.const(Mat.randn(batch.rows, cfg.latent, rng))
      val z     = t.add(mu, t.mul(ref.encoder.sigma(t, lv), eps))
      val recon = PrimitiveGraphs.mlp(t, z, ref.decoder)
      val reconLoss = t.sumAll(t.square(t.sub(recon, x)))
      val klInner = t.sub(t.sub(t.addConst(lv, 1.0), t.square(mu)), t.exp(lv))
      val loss = t.scale(t.add(reconLoss, t.scale(t.scale(t.sumAll(klInner), -0.5), 1.0)), 1.0 / batch.rows)
      t.backward(loss)
      adam.step(ref.params)
      loss.value.data(0)
    }
    assertSameWeights(fused, ref)
  }
}
