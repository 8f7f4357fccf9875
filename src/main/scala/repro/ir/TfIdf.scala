package repro.ir

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable

/** TF-IDF over a corpus of documents, with the smoothed IDF
  * `tfidf = tf * (ln((N+1)/(df+1)) + 1)` (never negative, never division by
  * zero).
  *
  * [[matrix]] is the one implementation: the LSA corpus is a few thousand
  * short sentences already on the driver. The Spark-side [[termFreq]] and
  * [[docFreq]] over a (docId: Long, text: String) DataFrame are the reference
  * it is tested against; they are plain Spark SQL, oracle-checked against
  * DuckDB in `TfIdfSpec`.
  */
object TfIdf {

  /** Term-sorted vocabulary and, per document, its (term index, tfidf)
    * entries in ascending term index.
    */
  final case class Matrix(vocab: IndexedSeq[String], rows: IndexedSeq[IndexedSeq[(Int, Double)]])

  /** The TF-IDF matrix of `docs`, counting tf and df in one pass. */
  def matrix(docs: IndexedSeq[String]): Matrix = {
    val df = mutable.HashMap.empty[String, Long]
    val tf = docs.map { d =>
      val counts = mutable.HashMap.empty[String, Long]
      Tokenize.tokens(d).foreach { t =>
        if (!counts.contains(t)) df(t) = df.getOrElse(t, 0L) + 1L
        counts(t) = counts.getOrElse(t, 0L) + 1L
      }
      counts
    }
    val vocab = df.keys.toIndexedSeq.sorted
    val index = vocab.zipWithIndex.toMap
    // Spark's `log` is StrictMath.log; so is this one, for the same bits.
    val idf = df.map { case (t, n) => t -> (StrictMath.log((docs.length + 1.0) / (n + 1.0)) + 1.0) }
    Matrix(vocab, tf.map(_.toIndexedSeq.map { case (t, n) => (index(t), n * idf(t)) }.sortBy(_._1)))
  }

  private val tokensUdf = udf((s: String) => Tokenize.tokens(s))

  /** Exploded (docId, term, tf) term frequencies. */
  def termFreq(docs: DataFrame): DataFrame =
    docs
      .select(col("docId"), explode(tokensUdf(col("text"))) as "term")
      .groupBy("docId", "term")
      .agg(count(lit(1)) as "tf")

  /** (term, df) document frequencies. */
  def docFreq(tf: DataFrame): DataFrame =
    tf.groupBy("term").agg(countDistinct("docId") as "df")

  /** Convenience: docs DataFrame from driver-side (id, text) pairs. */
  def docsDf(spark: SparkSession, docs: Seq[(Long, String)]): DataFrame = {
    import spark.implicits._
    docs.toDF("docId", "text")
  }
}
