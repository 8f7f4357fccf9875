package repro.ir

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.data.ErSynth

class TfIdfSpec extends SparkSpec {

  private val texts = IndexedSeq(
    "charlie brown coldplay", "charlie brown coldplay grammy", "stone ipa stone brewing", "ipa",
    "brown stone house")

  private lazy val docs = TfIdf.docsDf(spark, texts.zipWithIndex.map { case (t, i) => (i.toLong, t) })

  /** Reference weights: tf * (ln((N+1)/(df+1)) + 1) over Spark's termFreq/docFreq. */
  private def sparkWeights(docs: DataFrame): Map[(Long, String), Double] = {
    val n  = docs.count()
    val tf = TfIdf.termFreq(docs)
    tf.join(TfIdf.docFreq(tf), "term")
      .select(col("docId"), col("term"), col("tf") * (log((lit(n) + 1.0) / (col("df") + 1.0)) + 1.0))
      .collect().map(r => (r.getLong(0), r.getString(1)) -> r.getDouble(2)).toMap
  }

  private def driverWeights(texts: IndexedSeq[String]): Map[(Long, String), Double] = {
    val m = TfIdf.matrix(texts)
    m.rows.zipWithIndex.flatMap { case (row, d) => row.map { case (t, w) => (d.toLong, m.vocab(t)) -> w } }.toMap
  }

  test("termFreq matches DuckDB aggregation (oracle)") {
    val tf = TfIdf.termFreq(docs).select(col("docId"), col("term"), col("tf"))
    Oracle.assertEquivalent(tf,
      """SELECT docId, term, count(*) AS tf
        |FROM (SELECT docId, unnest(string_split(text, ' ')) AS term FROM docs)
        |GROUP BY docId, term""".stripMargin,
      "docs" -> docs)
  }

  test("docFreq matches DuckDB aggregation (oracle)") {
    val df = TfIdf.docFreq(TfIdf.termFreq(docs))
    Oracle.assertEquivalent(df,
      """SELECT term, count(DISTINCT docId) AS df
        |FROM (SELECT docId, unnest(string_split(text, ' ')) AS term FROM docs)
        |GROUP BY term""".stripMargin,
      "docs" -> docs)
  }

  test("repeated term counts as tf > 1 and df = 1") {
    val rows = TfIdf.termFreq(docs).where(col("term") === "stone").collect()
    val byDoc = rows.map(r => r.getLong(0) -> r.getLong(2)).toMap
    assert(byDoc(2L) == 2L && byDoc(4L) == 1L)
    val df = TfIdf.docFreq(TfIdf.termFreq(docs)).where(col("term") === "stone").collect()
    assert(df.head.getLong(1) == 2L)
  }

  test("tfidf weighs rare terms above common ones") {
    val w = driverWeights(texts)
    val brownW  = w((0L, "brown"))
    val grammyW = w((1L, "grammy"))
    assert(grammyW > brownW, s"grammy=$grammyW brown=$brownW")
  }

  test("vocab is a dense deterministic index") {
    val m = TfIdf.matrix(texts)
    assert(m.vocab == m.vocab.distinct.sorted)
    assert(m.rows.flatMap(_.map(_._1)).toSet == m.vocab.indices.toSet)
    assert(m == TfIdf.matrix(texts))
  }

  test("matrix round-trips every (doc, term) weight") {
    val m = TfIdf.matrix(texts)
    assert(m.rows.length == texts.length)
    // doc 2 has 3 distinct terms: stone, ipa, brewing
    assert(m.rows(2).map(e => m.vocab(e._1)).toSet == Set("stone", "ipa", "brewing"))
    m.rows.foreach(row => assert(row.map(_._1) == row.map(_._1).sorted.distinct))
    assert(driverWeights(texts).keySet ==
      texts.zipWithIndex.flatMap { case (t, d) => Tokenize.tokens(t).map(d.toLong -> _) }.toSet)
  }

  test("matrix equals the tf-idf of Spark's termFreq and docFreq") {
    assert(driverWeights(texts) == sparkWeights(docs))
  }

  test("matrix equals Spark's tf-idf on the LSA sentences of a tiny domain") {
    val ds = ErSynth.generateTiny(spark, "Cit. 2")
    val sentences = (ds.collectTuples(ds.a) ++ ds.collectTuples(ds.b))
      .flatMap(_._2).map(Tokenize.sentence).filter(_.nonEmpty).distinct.toIndexedSeq
    val ref = sparkWeights(TfIdf.docsDf(spark, sentences.zipWithIndex.map { case (t, i) => (i.toLong, t) }))
    assert(ref.nonEmpty)
    assert(driverWeights(sentences) == ref)
  }

  test("matrix of no documents or empty documents is empty") {
    assert(TfIdf.matrix(IndexedSeq.empty) == TfIdf.Matrix(IndexedSeq.empty, IndexedSeq.empty))
    assert(TfIdf.matrix(IndexedSeq("", "")) == TfIdf.Matrix(IndexedSeq.empty, IndexedSeq(IndexedSeq.empty, IndexedSeq.empty)))
  }
}
