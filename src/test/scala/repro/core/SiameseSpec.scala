package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.nn.{Mat, Rng, Tape}

class SiameseSpec extends AnyFunSuite {

  private val cfg = VaerConfig(irDim = 8, hidden = 16, latent = 4,
    matchEpochs = 40, matchBatch = 8, matchHidden = 8)

  /** Synthetic matching task: positives are near-identical attribute vectors,
    * negatives are independent ones.
    */
  private def taskPairs(n: Int, arity: Int, seed: Long): IndexedSeq[PairExample] = {
    val rng = new Rng(seed)
    IndexedSeq.tabulate(n) { i =>
      val s = Array.fill(arity)(Array.fill(8)(rng.nextGaussian()))
      if (i % 2 == 0) {
        val t = s.map(_.map(_ + rng.nextGaussian() * 0.05))
        PairExample(s, t, 1)
      } else {
        val t = Array.fill(arity)(Array.fill(8)(rng.nextGaussian()))
        PairExample(s, t, 0)
      }
    }
  }

  test("training reduces the loss") {
    val rng = new Rng(1)
    val m = new Siamese(cfg, 3, rng.split())
    val losses = m.train(taskPairs(64, 3, 2), rng.split())
    assert(losses.head > losses.last, s"first=${losses.head} last=${losses.last}")
  }

  test("learns to separate positives from negatives") {
    val rng = new Rng(3)
    val m = new Siamese(cfg, 3, rng.split())
    m.train(taskPairs(96, 3, 4), rng.split())
    val test = taskPairs(32, 3, 5)
    val probs = m.predict(test)
    val acc = test.zip(probs).count { case (ex, p) => (p > 0.5) == (ex.label == 1) }.toDouble / test.length
    assert(acc > 0.85, s"accuracy $acc")
  }

  test("initFromVae copies the encoder weights (deep copy)") {
    val rng = new Rng(6)
    val vae = new VaeModel(cfg, rng.split())
    val m   = new Siamese(cfg, 2, rng.split())
    m.initFromVae(vae)
    assert(m.encoder.hidden.w.value.data.toSeq == vae.encoder.hidden.w.value.data.toSeq)
    assert(m.encoder.mu.w.value.data.toSeq == vae.encoder.mu.w.value.data.toSeq)
    val x = repro.nn.Mat.randn(5, 8, new Rng(15))
    val (muM, sigM) = m.encoder.infer(x)
    val (muV, sigV) = vae.encodeBatch(x)
    assert(muM.data.toSeq == muV.data.toSeq)
    assert(sigM.data.toSeq == sigV.data.toSeq)
    // mutation must not leak back into the VAE
    m.encoder.hidden.w.value.data(0) += 1.0
    assert(m.encoder.hidden.w.value.data(0) != vae.encoder.hidden.w.value.data(0))
  }

  test("predict agrees with the tape forward pass") {
    val rng = new Rng(7)
    val m = new Siamese(cfg, 2, rng.split())
    val pairs = taskPairs(4, 2, 8)
    val probs = m.predict(pairs)
    val t = new repro.nn.Tape
    val sB = IndexedSeq.tabulate(2)(ai => repro.nn.Mat.fromRows(pairs.map(_.sIrs(ai))))
    val tB = IndexedSeq.tabulate(2)(ai => repro.nn.Mat.fromRows(pairs.map(_.tIrs(ai))))
    val (node, _) = m.forward(t, sB, tB)
    probs.zip(node.value.data).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
  }

  test("the stacked forward pass equals a per-attribute encoder pass") {
    val rng = new Rng(16)
    val m = new Siamese(cfg, 3, rng.split())
    m.train(taskPairs(32, 3, 17), rng.split())
    val pairs = taskPairs(10, 3, 18)
    val sB = IndexedSeq.tabulate(3)(ai => Mat.fromRows(pairs.map(_.sIrs(ai))))
    val tB = IndexedSeq.tabulate(3)(ai => Mat.fromRows(pairs.map(_.tIrs(ai))))
    val (prob, w2s) = m.forward(new Tape, sB, tB)
    val dists = (0 until 3).map { ai =>
      val (muS, sigS) = m.encoder.infer(sB(ai))
      val (muT, sigT) = m.encoder.infer(tB(ai))
      val dm = muS - muT; val ds = sigS - sigT
      dm.hadamard(dm) + ds.hadamard(ds)
    }
    val refProb = m.classifier.infer(Mat.concatCols(dists)).data.map(v => 1.0 / (1.0 + math.exp(-v)))
    assert(prob.value.data.toSeq == refProb.toSeq)
    w2s.zip(dists).foreach { case (w2, d) =>
      assert(w2.value.rows == 10 && w2.value.cols == 1)
      (0 until 10).foreach(r => assert(w2.value.data(r) == d.row(r).sum))
    }
  }

  test("predict over pairs that share IR arrays equals predict over deep copies") {
    val rng = new Rng(19)
    val m = new Siamese(cfg, 2, rng.split())
    m.train(taskPairs(32, 2, 20), rng.split())
    val tuples = taskPairs(6, 2, 21).map(_.sIrs)
    val shared = for (i <- tuples.indices; j <- tuples.indices) yield PairExample(tuples(i), tuples(j), 0)
    val copies = shared.map(p => PairExample(p.sIrs.map(_.clone), p.tIrs.map(_.clone), 0))
    assert(m.predict(shared).toSeq == m.predict(copies).toSeq)
  }

  test("concurrent predict calls on one matcher get the sequential answers") {
    val rng = new Rng(22)
    val m = new Siamese(cfg.copy(irDim = 64, hidden = 64), 3, rng.split())
    val pairs = IndexedSeq.tabulate(300) { i =>
      val r = new Rng(100 + i)
      PairExample(Array.fill(3)(Array.fill(64)(r.nextGaussian())), Array.fill(3)(Array.fill(64)(r.nextGaussian())), 0)
    }
    val expected = m.predict(pairs).toSeq
    val results = new java.util.concurrent.ConcurrentLinkedQueue[Seq[Double]]
    val threads = Seq.fill(2)(new Thread(() => (0 until 5).foreach(_ => results.add(m.predict(pairs).toSeq))))
    threads.foreach(_.start()); threads.foreach(_.join())
    assert(results.size == 10)
    results.forEach(r => assert(r == expected))
  }

  /** A trained arity-2 matcher and pairs over six tuples, every tuple in several pairs. */
  private def sharedTask(seed: Long): (Siamese, IndexedSeq[PairExample]) = {
    val rng = new Rng(seed)
    val m = new Siamese(cfg, 2, rng.split())
    m.train(taskPairs(32, 2, seed + 1), rng.split())
    val tuples = taskPairs(6, 2, seed + 2).map(_.sIrs)
    (m, for (i <- tuples.indices; j <- tuples.indices) yield PairExample(tuples(i), tuples(j), 0))
  }

  /** A matcher that has never predicted, with `m`'s current weights. */
  private def coldCopy(m: Siamese): Siamese = {
    val c = new Siamese(cfg, m.arity, new Rng(99))
    c.restore(m.snapshot())
    c
  }

  test("a warm matcher's predict equals a cold matcher's with the same weights, bit for bit") {
    val (m, pairs) = sharedTask(27)
    val first = m.predict(pairs.take(10))
    assert(first sameElements coldCopy(m).predict(pairs.take(10)))
    val warm = m.predict(pairs)
    assert(warm sameElements coldCopy(m).predict(pairs))
    assert(m.predict(pairs) sameElements warm)
  }

  test("after an in-place weight edit predict equals a fresh matcher restored to the edited weights") {
    val (m, pairs) = sharedTask(28)
    val before = m.predict(pairs)
    m.encoder.hidden.w.value.data(0) += 1.0
    val after = m.predict(pairs)
    assert(after sameElements coldCopy(m).predict(pairs))
    assert(!(after sameElements before))
  }

  test("after an IR array is overwritten in place predict reflects its new contents") {
    val (m, pairs) = sharedTask(29)
    val before = m.predict(pairs)
    val ir = pairs.head.sIrs(0)
    val rng = new Rng(30)
    ir.indices.foreach(i => ir(i) = rng.nextGaussian())
    val after = m.predict(pairs)
    val copies = pairs.map(p => PairExample(p.sIrs.map(_.clone), p.tIrs.map(_.clone), 0))
    assert(after sameElements coldCopy(m).predict(copies))
    assert(!(after sameElements before))
  }

  test("two threads predicting on a cold matcher get the sequential answers") {
    val (m, pairs) = sharedTask(31)
    val expected = coldCopy(m).predict(pairs).toSeq
    val rounds = 20
    val results = new java.util.concurrent.ConcurrentLinkedQueue[Seq[Double]]
    val start = new java.util.concurrent.CountDownLatch(1)
    // each round gets fresh arrays, so every round starts from a cold memo entry
    val threads = Seq.tabulate(2) { t =>
      new Thread(() => {
        start.await()
        (0 until rounds).foreach { k =>
          val own = if (k % 2 == t) pairs.map(p => PairExample(p.sIrs.map(_.clone), p.tIrs.map(_.clone), 0)) else pairs
          results.add(m.predict(own).toSeq)
        }
      })
    }
    threads.foreach(_.start()); start.countDown(); threads.foreach(_.join())
    assert(results.size == 2 * rounds)
    results.forEach(r => assert(r == expected))
  }

  test("margin dampens the gradient pressure on already-distant negatives") {
    // loss for a far-apart negative should equal its BCE part only (hinge 0)
    val rng = new Rng(9)
    val m = new Siamese(cfg.copy(margin = 0.001), 1, rng.split())
    val far = PairExample(Array(Array.fill(8)(5.0)), Array(Array.fill(8)(-5.0)), 0)
    val t = new repro.nn.Tape
    val sB = IndexedSeq(repro.nn.Mat.fromRows(Seq(far.sIrs(0))))
    val tB = IndexedSeq(repro.nn.Mat.fromRows(Seq(far.tIrs(0))))
    val (prob, w2s) = m.forward(t, sB, tB)
    val loss = m.lossNode(t, prob, w2s, Array(0.0))
    val p = prob.value.data(0)
    val bce = -math.log(1.0 - p + 1e-7)
    assert(math.abs(loss.value.data(0) - bce) < 1e-6,
      s"loss=${loss.value.data(0)} bce=$bce w2=${w2s.head.value.data(0)}")
  }

  test("contrastive term improves the positive/negative distance separation") {
    val rng = new Rng(10)
    val m = new Siamese(cfg, 1, rng.split())
    val pairs = taskPairs(64, 1, 11)
    def meanW2(label: Int): Double = {
      val sel = pairs.filter(_.label == label)
      sel.map { ex =>
        val (muS, sigS) = m.encoder.infer(repro.nn.Mat.fromRows(Seq(ex.sIrs(0))))
        val (muT, sigT) = m.encoder.infer(repro.nn.Mat.fromRows(Seq(ex.tIrs(0))))
        Wasserstein.w2sq(muS.row(0), sigS.row(0), muT.row(0), sigT.row(0))
      }.sum / sel.length
    }
    val ratioBefore = meanW2(1) / meanW2(0)
    m.train(pairs, rng.split())
    val ratioAfter = meanW2(1) / meanW2(0)
    assert(ratioAfter < ratioBefore, s"before=$ratioBefore after=$ratioAfter")
  }

  test("empty training set is rejected") {
    val m = new Siamese(cfg, 1, new Rng(12))
    intercept[IllegalArgumentException](m.train(IndexedSeq.empty, new Rng(13)))
  }

  test("predict on empty input returns empty") {
    val m = new Siamese(cfg, 1, new Rng(14))
    assert(m.predict(IndexedSeq.empty).isEmpty)
  }

  /** Pairs for an arity-2 matcher with one attribute too few or too many on one side. */
  private val badArity: Seq[IndexedSeq[PairExample]] = {
    val ok = taskPairs(4, 2, 23)
    def cut(a: Array[Array[Double]]) = a.take(1)
    def extra(a: Array[Array[Double]]) = a :+ a(0)
    Seq(ok.map(p => p.copy(sIrs = cut(p.sIrs))), ok.map(p => p.copy(tIrs = cut(p.tIrs))),
        ok.map(p => p.copy(sIrs = extra(p.sIrs))), ok.map(p => p.copy(tIrs = extra(p.tIrs))))
  }

  private def assertNamesBothCounts(pairs: IndexedSeq[PairExample], e: IllegalArgumentException): Unit = {
    val p = pairs.head
    assert(e.getMessage.contains(s"${p.sIrs.length} and ${p.tIrs.length} attributes"), e.getMessage)
    assert(e.getMessage.contains("built for 2"), e.getMessage)
  }

  test("train rejects pairs with too few or too many attributes") {
    val m = new Siamese(cfg, 2, new Rng(24))
    badArity.foreach(pairs => assertNamesBothCounts(pairs, intercept[IllegalArgumentException](m.train(pairs, new Rng(25)))))
  }

  test("predict rejects pairs with too few or too many attributes") {
    val m = new Siamese(cfg, 2, new Rng(26))
    badArity.foreach(pairs => assertNamesBothCounts(pairs, intercept[IllegalArgumentException](m.predict(pairs))))
  }
}
