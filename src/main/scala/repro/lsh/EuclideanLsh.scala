package repro.lsh

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.er.Knn
import repro.nn.Rng

/** p-stable (Gaussian) Euclidean LSH (Datar et al., SoCG'04).
  *
  * Each of `nTables` hash tables concatenates `nBits` hashes
  * `floor((a·v + b) / w)` into one bucket key ([[bucketKey]]). [[topK]] is
  * Algorithm 1's `lsh_index` / `lookup` (§V-A) on the driver, where the
  * latent vectors already are: a query's candidates are the index vectors
  * sharing a bucket with it in any table, re-ranked exactly. The DataFrame
  * [[bucketize]] (one row per vector and table) and the brute-force
  * [[exactTopK]] are the Spark-side references the tests check it against.
  */
object EuclideanLsh {

  final case class Config(dim: Int, nTables: Int = 8, nBits: Int = 10,
                          width: Double = 1.5, seed: Long = 0x15489L)

  private def sqDist = udf((a: Seq[Double], b: Seq[Double]) => Knn.sqDist(a.toArray, b.toArray))

  /** Deterministic projections: (table, bit) -> (a-vector, offset b). */
  private[lsh] def projections(cfg: Config): Array[Array[(Array[Double], Double)]] = {
    val rng = new Rng(cfg.seed)
    Array.fill(cfg.nTables)(Array.fill(cfg.nBits)(
      (Array.fill(cfg.dim)(rng.nextGaussian()), rng.nextDouble() * cfg.width)
    ))
  }

  /** The bucket key of `v` in one table: its hashes joined by ':'. */
  private[lsh] def bucketKey(table: Array[(Array[Double], Double)], width: Double, v: Array[Double]): String =
    table.map { case (a, b) =>
      var dot = 0.0; var i = 0
      while (i < v.length) { dot += a(i) * v(i); i += 1 }
      math.floor((dot + b) / width).toLong
    }.mkString(":")

  /** Add one row per (vector, table) with the concatenated bucket key. */
  def bucketize(df: DataFrame, vecCol: String, cfg: Config): DataFrame = {
    val proj = projections(cfg)
    val bucketUdf = udf((v: Seq[Double], table: Int) => bucketKey(proj(table), cfg.width, v.toArray))
    df.withColumn("table", explode(lit((0 until cfg.nTables).toArray)))
      .withColumn("bucket", bucketUdf(col(vecCol), col("table")))
  }

  /** For each query id: the k nearest of the index entries that share a
    * bucket with it in any table, as (id, sqDist), ascending, ties by id. A
    * query that shares no bucket gets an empty list.
    */
  def topK(queries: IndexedSeq[(Long, Array[Double])], index: IndexedSeq[(Long, Array[Double])],
           k: Int, cfg: Config): Map[Long, IndexedSeq[(Long, Double)]] = {
    val proj = projections(cfg)
    val tables = proj.map(table => index.indices.groupBy(j => bucketKey(table, cfg.width, index(j)._2)))
    queries.map { case (qid, qv) =>
      val mates = proj.indices.flatMap(t => tables(t).getOrElse(bucketKey(proj(t), cfg.width, qv), Nil)).distinct
      qid -> mates.map { j => (index(j)._1, Knn.sqDist(qv, index(j)._2)) }.sortBy(p => (p._2, p._1)).take(k)
    }.toMap
  }

  /** Brute-force exact top-k (cross join); reference for tests and small data. */
  def exactTopK(queries: DataFrame, index: DataFrame, k: Int): DataFrame = {
    val q = queries.select(col("id") as "qid", col("vec") as "qvec")
    val i = index.select(col("id") as "iid", col("vec") as "ivec")
    val cand = q.crossJoin(i).withColumn("dist", sqDist(col("qvec"), col("ivec")))
    val w = Window.partitionBy("qid").orderBy(col("dist").asc, col("iid").asc)
    cand.withColumn("rank", row_number().over(w))
      .where(col("rank") <= k)
      .select("qid", "iid", "dist", "rank")
  }

  /** Helper: DataFrame (id, vec) from driver-side vectors. */
  def vecDf(spark: SparkSession, vecs: Seq[(Long, Array[Double])]): DataFrame = {
    import spark.implicits._
    vecs.map { case (id, v) => (id, v.toSeq) }.toDF("id", "vec")
  }
}
