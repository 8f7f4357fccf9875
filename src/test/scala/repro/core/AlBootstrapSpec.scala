package repro.core

import repro.SparkSpec
import repro.data.ErSynth
import repro.ir.W2vIr
import repro.lsh.EuclideanLsh
import repro.nn.Rng

class AlBootstrapSpec extends SparkSpec {
  private implicit def s: org.apache.spark.sql.SparkSession = spark

  private val cfg = VaerConfig(irDim = 16, hidden = 16, latent = 8, vaeEpochs = 8)

  private lazy val ds    = ErSynth.generateTiny(spark, "Rest.")
  private lazy val irs   = new W2vIr(16).compute(ds)
  private lazy val vae   = Vaer.trainVae(irs, cfg)
  private lazy val reprs = Represent.encodeAll(vae, irs)
  private lazy val truth =
    ds.matches.collect().map(r => (r.getLong(0), r.getLong(1))).toSet

  test("bootstrap produces positives, negatives, and a candidate pool") {
    val b = AlBootstrap.run(spark, reprs, k = 5)
    assert(b.pos.nonEmpty, "no seed positives")
    assert(b.neg.nonEmpty, "no seed negatives")
    assert(b.unlabeled.nonEmpty, "empty unlabeled pool")
    assert(b.pos.size <= 15 && b.neg.size <= 15)
  }

  test("seeds are disjoint from the unlabeled pool") {
    val b = AlBootstrap.run(spark, reprs, k = 5)
    val seeds = (b.pos ++ b.neg).toSet
    assert(b.unlabeled.forall(!seeds.contains(_)))
  }

  test("seed positives are mostly true duplicates (closest pairs)") {
    val b = AlBootstrap.run(spark, reprs, k = 5)
    val hit = b.pos.count(truth.contains)
    assert(hit.toDouble / b.pos.size > 0.5, s"$hit/${b.pos.size} seed positives are true")
  }

  test("seed negatives are overwhelmingly true non-duplicates") {
    val b = AlBootstrap.run(spark, reprs, k = 5)
    val wrong = b.neg.count(truth.contains)
    assert(wrong == 0, s"$wrong seed negatives are actually duplicates")
  }

  test("verifyPos removes false positives and counts them") {
    val b = AlBootstrap.run(spark, reprs, k = 5, verifyPos = Some(truth.contains))
    assert(b.pos.forall(truth.contains))
    val unverified = AlBootstrap.run(spark, reprs, k = 5)
    assert(b.removedFalsePositives == unverified.pos.count(p => !truth.contains(p)))
  }

  test("a pair is never both a seed positive and a seed negative") {
    // one identical A/B tuple: the only candidate ties with itself, so both
    // W2 bands cover the whole pool
    val r = TupleRepr(Array(Array(0.5, -0.5)), Array(Array(0.1, 0.1)))
    val b = AlBootstrap.run(spark, Map(("A", 0L) -> r, ("B", 0L) -> r), k = 1)
    assert(b.pos == Seq((0L, 0L)))
    assert(b.neg.isEmpty, s"neg=${b.neg}")
  }

  test("W2 ordering holds: every seed positive closer than every seed negative") {
    val b = AlBootstrap.run(spark, reprs, k = 5)
    val maxPos = b.pos.map(p => Wasserstein.tupleW2sq(reprs(("A", p._1)), reprs(("B", p._2)))).max
    val minNeg = b.neg.map(p => Wasserstein.tupleW2sq(reprs(("A", p._1)), reprs(("B", p._2)))).min
    assert(maxPos < minNeg, s"maxPos=$maxPos minNeg=$minNeg")
  }

  test("a pool in which no A tuple shares a bucket with a B tuple gives an empty bootstrap") {
    // one tuple a side; the bucket width is their distance, and these two
    // land in different buckets of every table
    val a = TupleRepr(Array(Array(0.0, 0.0, 0.0)), Array(Array(0.1, 0.1, 0.1)))
    val b = TupleRepr(Array(Array(1.0, 2.0, -1.0)), Array(Array(0.1, 0.1, 0.1)))
    val aVecs = IndexedSeq((0L, a.muFlat)); val bVecs = IndexedSeq((0L, b.muFlat))
    val pool = EuclideanLsh.topK(aVecs, bVecs, 5, AlBootstrap.lshConfig(aVecs, bVecs, 0x415EEDL))
    assert(pool == Map(0L -> IndexedSeq.empty))
    val boot = AlBootstrap.run(spark, Map(("A", 0L) -> a, ("B", 0L) -> b), k = 5)
    assert(boot == AlBootstrap.Bootstrap(Seq.empty, Seq.empty, Seq.empty, 0))
  }
}
