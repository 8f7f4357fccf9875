package repro.core

import org.apache.spark.sql.SparkSession
import repro.lsh.EuclideanLsh

/** Algorithm 1 — active-learning bootstrap.
  *
  * Generates the unlabeled candidate pool U by LSH k-NN over the latent μ
  * vectors (Euclidean distance is a surrogate for W2² as §V-A observes),
  * then seeds L⁺ with the W2²-closest pairs and L⁻ with the farthest.
  * `verifyPos` plays the paper's "manually removed false positives" step
  * (the ‡-marked domains of Table VIII): when provided, seed positives
  * failing it are dropped (and counted).
  */
object AlBootstrap {

  final case class Bootstrap(
      pos: Seq[(Long, Long)], neg: Seq[(Long, Long)], unlabeled: Seq[(Long, Long)],
      removedFalsePositives: Int)

  /** `spark` is unused: the pool is computed on the driver, where `reprs` is. */
  def run(spark: SparkSession,
          reprs: Map[(String, Long), TupleRepr],
          k: Int,
          maxSeeds: Int = 15,
          bandFraction: Double = 0.05,
          verifyPos: Option[((Long, Long)) => Boolean] = None,
          lshSeed: Long = 0x415EEDL): Bootstrap = {

    val aVecs = reprs.collect { case (("A", id), r) => (id, r.muFlat) }.toIndexedSeq.sortBy(_._1)
    val bVecs = reprs.collect { case (("B", id), r) => (id, r.muFlat) }.toIndexedSeq.sortBy(_._1)
    require(aVecs.nonEmpty && bVecs.nonEmpty, "bootstrap needs both sides")

    // LSH candidate pool (lines 3-10): each A tuple's top-k bucket-mates on B.
    val pool = EuclideanLsh.topK(aVecs, bVecs, k, lshConfig(aVecs, bVecs, lshSeed))
    val cand = aVecs.flatMap { case (ia, _) => pool(ia).map { case (ib, _) => (ia, ib) } }

    // W2² for every candidate (lines 11-12 thresholds).
    val withDist = cand.map { case (ia, ib) =>
      ((ia, ib), Wasserstein.tupleW2sq(reprs(("A", ia)), reprs(("B", ib))))
    }.sortBy(_._2)

    if (withDist.isEmpty) return Bootstrap(Seq.empty, Seq.empty, Seq.empty, 0)

    val wMin  = withDist.head._2
    val wMax  = withDist.last._2
    val band  = bandFraction * math.max(wMax - wMin, 1e-12)

    val posRaw = withDist.takeWhile(_._2 <= wMin + band).take(maxSeeds).map(_._1)
    // When every candidate ties, both bands cover the whole pool; a pair
    // already taken as a positive is never also a negative.
    val posSet = posRaw.toSet
    val neg    = withDist.reverse.takeWhile(_._2 >= wMax - band).map(_._1)
      .filterNot(posSet).take(maxSeeds)

    val (pos, removed) = verifyPos match {
      case Some(check) =>
        val (keep, drop) = posRaw.partition(check)
        (keep, drop.length)
      case None => (posRaw, 0)
    }

    val seeded = (pos ++ neg).toSet
    Bootstrap(pos, neg, withDist.map(_._1).filterNot(seeded), removed)
  }

  /** The pool's LSH tables. The p-stable bucket width must sit on the scale
    * of typical pair distances or buckets become singletons; it is the
    * median distance of a sample of A–B pairs.
    */
  private[core] def lshConfig(aVecs: IndexedSeq[(Long, Array[Double])], bVecs: IndexedSeq[(Long, Array[Double])],
                              lshSeed: Long): EuclideanLsh.Config = {
    val sampler = new repro.nn.Rng(lshSeed ^ 0x5A5A5AL)
    val sampleDists = IndexedSeq.fill(256) {
      val a = aVecs(sampler.nextInt(aVecs.length))._2
      val b = bVecs(sampler.nextInt(bVecs.length))._2
      math.sqrt(repro.er.Knn.sqDist(a, b))
    }.sorted
    val medianDist = math.max(sampleDists(sampleDists.length / 2), 1e-6)
    EuclideanLsh.Config(aVecs.head._2.length, nTables = 8, nBits = 4, width = medianDist, seed = lshSeed)
  }
}
