package repro.ir

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions.{col, lit}
import repro.SparkSpec
import repro.data.ErSynth
import repro.er.LabeledPair

/** Every IR provider must produce correctly-shaped, deterministic,
  * similarity-preserving representations on a tiny domain.
  */
class IrProvidersSpec extends SparkSpec {
  private implicit def s: org.apache.spark.sql.SparkSession = spark

  private lazy val ds    = ErSynth.generateTiny(spark, "Rest.")
  private lazy val pairs = ds.train.collect().map(r => LabeledPair(r.getLong(0), r.getLong(1), r.getInt(2))).toSeq

  private def tupleVec(irs: IrSet, side: String, id: Long): Array[Double] =
    irs(side, id).flatten

  for (provider <- IrProviders.all(dim = 32)) {
    test(s"${provider.name}: shapes cover every tuple and attribute") {
      val irs = provider.compute(ds)
      assert(irs.dim == 32 && irs.arity == ds.arity)
      val nA = ds.a.count(); val nB = ds.b.count()
      assert(irs.irs.size == nA + nB)
      irs.irs.values.foreach { attrs =>
        assert(attrs.length == ds.arity)
        attrs.foreach(v => assert(v.length == 32))
      }
    }

    test(s"${provider.name}: duplicates closer than non-duplicates on average") {
      val irs = provider.compute(ds)
      val pos = pairs.filter(_.label == 1)
      val neg = pairs.filter(_.label == 0)
      def meanDist(ps: Seq[LabeledPair]): Double =
        ps.map(p => HashEmb.euclidean(tupleVec(irs, "A", p.idA), tupleVec(irs, "B", p.idB))).sum / ps.length
      val dPos = meanDist(pos); val dNeg = meanDist(neg)
      assert(dPos < dNeg, s"${provider.name}: posDist=$dPos negDist=$dNeg")
    }
  }

  test("LSA IRs are deterministic across runs") {
    val p = new LsaIr(16)
    val a = p.compute(ds); val b = p.compute(ds)
    val k = a.irs.keys.head
    assert(a.irs(k).flatten.toSeq == b.irs(k).flatten.toSeq)
  }

  /** `ds` with every attribute value of A replaced by `a` and of B by `b`. */
  private def withValues(a: Column, b: Column) = ds.copy(
    a = ds.a.select(col("id") +: ds.attrCols.map(c => a as c): _*),
    b = ds.b.select(col("id") +: ds.attrCols.map(c => b as c): _*))

  test("LSA on all-empty attribute values gives zero IRs without an SVD") {
    // The SVD rejects an empty corpus, so an answer shows it did not run.
    val irs = new LsaIr(16).compute(withValues(lit(null).cast("string"), lit(" !! ")))
    assert(irs.irs.size == ds.a.count() + ds.b.count())
    irs.irs.values.foreach(_.foreach(v => assert(v.length == 16 && v.forall(_ == 0.0))))
  }

  test("LSA on a single distinct sentence gives every value the same unit IR") {
    val irs = new LsaIr(16).compute(withValues(lit("Golden Dragon"), lit("golden  DRAGON!")))
    val ir  = irs.irs.values.head.head
    assert(math.abs(math.sqrt(ir.map(x => x * x).sum) - 1.0) < 1e-9)
    irs.irs.values.foreach(_.foreach(v => assert(v.toSeq == ir.toSeq)))
  }

  test("EmbDI IRs are deterministic across runs") {
    val p = new EmbdiIr(16)
    val a = p.compute(ds); val b = p.compute(ds)
    val k = a.irs.keys.head
    assert(a.irs(k).flatten.toSeq == b.irs(k).flatten.toSeq)
  }

  test("missing attribute values map to zero vectors (W2V)") {
    val irs = new W2vIr(16).compute(ds)
    // find a tuple with an empty attribute, if any; otherwise check empty-text behavior directly
    val emb = new HashEmb(16)
    assert(emb.sentence("").forall(_ == 0.0))
    irs.irs.values.foreach(attrs => attrs.foreach(v => assert(v.forall(d => !d.isNaN && !d.isInfinite))))
  }

  test("byName resolves each provider and rejects unknowns") {
    Seq("LSA", "W2V", "BERT", "EmbDI").foreach { n =>
      assert(IrProviders.byName(n, 16).name == n)
    }
    intercept[IllegalArgumentException](IrProviders.byName("GPT", 16))
  }
}
