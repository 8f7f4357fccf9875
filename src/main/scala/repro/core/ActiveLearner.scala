package repro.core

import repro.ir.IrSet
import repro.kde.Kde
import repro.nn.Rng

/** Algorithm 2 — balanced, informative, diverse active learning (§V-B).
  *
  * Each iteration trains the matcher on the current labeled pool, estimates
  * the positive-distance density f̂⁺ by KDE over reparameterization-trick
  * samples of L⁺ pairs (Eq. 6), then selects certain/uncertain positives and
  * negatives by the four entropy × density criteria (lines 6–9) for the
  * label oracle (the simulated user). Selections are batched: the top
  * `samplesPerIter / 4` pairs per criterion.
  */
object ActiveLearner {

  final case class AlResult(matcher: Siamese, labelsUsed: Int,
                            labeledPos: Seq[(Long, Long)], labeledNeg: Seq[(Long, Long)])

  /** Binary entropy of a probability (Eq. 5), guarded away from 0. */
  def entropy(p: Double): Double = {
    val q = math.min(1.0 - 1e-9, math.max(1e-9, p))
    -(q * math.log(q) + (1.0 - q) * math.log(1.0 - q))
  }

  /** Distance sample distribution D⁺ over L⁺ via ancestral sampling (Eq. 6). */
  def positiveDistances(reprs: Map[(String, Long), TupleRepr],
                        pos: Seq[(Long, Long)], samplesPerPair: Int, rng: Rng): Array[Double] = {
    val out = Array.newBuilder[Double]
    pos.foreach { case (ia, ib) =>
      val rs = reprs(("A", ia)); val rt = reprs(("B", ib))
      var s = 0
      while (s < samplesPerPair) {
        var sum = 0.0
        var attr = 0
        while (attr < rs.mu.length) {
          val mS = rs.mu(attr); val sS = rs.sigma(attr)
          val mT = rt.mu(attr); val sT = rt.sigma(attr)
          var i = 0
          while (i < mS.length) {
            val zs = mS(i) + sS(i) * rng.nextGaussian()
            val zt = mT(i) + sT(i) * rng.nextGaussian()
            val d  = zs - zt
            sum += d * d
            i += 1
          }
          attr += 1
        }
        out += math.sqrt(sum)
        s += 1
      }
    }
    out.result()
  }

  /** Deterministic pair distance used when *applying* f̂⁺ to candidates:
    * Euclidean distance between the concatenated μ vectors (the mean of the
    * sampled-z distance distribution concentrates here).
    */
  def muDistance(reprs: Map[(String, Long), TupleRepr], p: (Long, Long)): Double =
    math.sqrt(repro.er.Knn.sqDist(reprs(("A", p._1)).muFlat, reprs(("B", p._2)).muFlat))

  // Build matcher training examples from the labeled pools. The pools drift
  // negative-heavy as AL progresses (most candidates are non-duplicates), so
  // positives are oversampled toward balance — the training-side face of the
  // §V-B "class balance" property.
  private def examples(irs: IrSet, pos: Seq[(Long, Long)], neg: Seq[(Long, Long)]): IndexedSeq[PairExample] = {
    val posEx = pos.map(p => PairExample(irs("A", p._1), irs("B", p._2), 1))
    val negEx = neg.map(p => PairExample(irs("A", p._1), irs("B", p._2), 0))
    val reps  = if (posEx.isEmpty) 0 else math.min(4, math.max(1, negEx.size / posEx.size))
    (Seq.fill(reps)(posEx).flatten ++ negEx).toIndexedSeq
  }

  /** Run AL to a label budget; `oracle` returns the true label of a pair. */
  def run(cfg: VaerConfig,
          vae: VaeModel,
          irs: IrSet,
          reprs: Map[(String, Long), TupleRepr],
          bootstrap: AlBootstrap.Bootstrap,
          oracle: ((Long, Long)) => Int,
          labelBudget: Int,
          seed: Long = 0xA1L): AlResult = {
    val rng = new Rng(seed)
    var lPos = bootstrap.pos.toVector
    var lNeg = bootstrap.neg.toVector
    var u    = bootstrap.unlabeled.toVector
    var used = 0

    def trainFresh(): Siamese = Siamese.fit(cfg, irs.arity, vae, examples(irs, lPos, lNeg), rng)
    var matcher = trainFresh()
    val perCrit = math.max(1, cfg.alSamplesPerIter / 4)

    // cache the deterministic candidate distances once
    val dCache = scala.collection.mutable.HashMap.empty[(Long, Long), Double]
    def dOf(p: (Long, Long)): Double = dCache.getOrElseUpdate(p, muDistance(reprs, p))

    while (used < labelBudget && u.nonEmpty) {
      val kde =
        if (lPos.nonEmpty)
          Some(new Kde(positiveDistances(reprs, lPos, cfg.kdeSamplesPerPair, rng.split())))
        else None
      def fPlus(d: Double): Double = kde.map(_.density(d)).getOrElse(1.0).max(1e-9)

      val probs = matcher.predict(u.map(p => PairExample(irs("A", p._1), irs("B", p._2), 0)))
      val scored = u.indices.map { i =>
        val p = probs(i)
        (u(i), p, math.max(entropy(p), 1e-9), fPlus(dOf(u(i))))
      }
      val uPos = scored.filter(_._2 > 0.5)
      val uNeg = scored.filter(_._2 <= 0.5)

      val picked = scala.collection.mutable.LinkedHashSet.empty[(Long, Long)]
      def takeBy(cands: Seq[((Long, Long), Double, Double, Double)], score: ((Long, Long), Double, Double, Double) => Double): Unit =
        cands.sortBy { case (pair, p, h, f) => score(pair, p, h, f) }
          .iterator.map(_._1).filterNot(picked.contains)
          .take(perCrit).foreach(picked += _)

      takeBy(uPos, (_, _, h, f) => h / f)          // certain positives  (line 6)
      takeBy(uNeg, (_, _, h, f) => h * f)          // certain negatives  (line 7)
      takeBy(uPos, (_, _, h, f) => f / h)          // uncertain positives (line 8)
      takeBy(uNeg, (_, _, h, f) => 1.0 / (h * f))  // uncertain negatives (line 9)

      if (picked.isEmpty) {
        // degenerate pool (e.g., one class empty and exhausted): fall back to
        // highest-entropy sampling so the budget still gets spent usefully.
        scored.sortBy(-_._3).iterator.map(_._1).take(cfg.alSamplesPerIter).foreach(picked += _)
      }
      if (picked.isEmpty) return AlResult(matcher, used, lPos, lNeg)

      val batch = picked.toSeq.take(math.min(cfg.alSamplesPerIter, labelBudget - used))
      batch.foreach { pair =>
        if (oracle(pair) == 1) lPos :+= pair else lNeg :+= pair
      }
      used += batch.length
      val batchSet = batch.toSet
      u = u.filterNot(batchSet)

      matcher = trainFresh()
    }
    AlResult(matcher, used, lPos, lNeg)
  }
}
