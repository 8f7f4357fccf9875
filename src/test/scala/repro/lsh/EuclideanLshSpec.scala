package repro.lsh

import org.apache.spark.sql.functions.col
import repro.SparkSpec
import repro.nn.Rng
import repro.er.Knn

class EuclideanLshSpec extends SparkSpec {

  private def randomVecs(n: Int, dim: Int, seed: Long): IndexedSeq[(Long, Array[Double])] = {
    val rng = new Rng(seed)
    (0 until n).map(i => (i.toLong, Array.fill(dim)(rng.nextGaussian())))
  }

  /** 300 index and 30 query points around ten centres on the diagonal. */
  private def clustered(): (IndexedSeq[(Long, Array[Double])], IndexedSeq[(Long, Array[Double])]) = {
    val rng = new Rng(7)
    def point(i: Int) = Array.fill(8)((i % 10).toDouble + rng.nextGaussian() * 0.3)
    val index   = (0 until 300).map(i => (i.toLong, point(i)))
    val queries = (0 until 30).map(i => (1000L + i, point(i)))
    (index, queries)
  }

  /** Reference for [[EuclideanLsh.topK]]: `bucketize`'s (table, bucket) join, re-ranked exactly. */
  private def joinTopK(queries: IndexedSeq[(Long, Array[Double])], index: IndexedSeq[(Long, Array[Double])],
                       k: Int, cfg: EuclideanLsh.Config): Map[Long, IndexedSeq[(Long, Double)]] = {
    def buckets(vecs: Seq[(Long, Array[Double])], id: String) =
      EuclideanLsh.bucketize(EuclideanLsh.vecDf(spark, vecs), "vec", cfg)
        .select(col("id") as id, col("table"), col("bucket"))
    val pairs = buckets(queries, "qid").join(buckets(index, "iid"), Seq("table", "bucket"))
      .select("qid", "iid").distinct().collect().map(r => (r.getLong(0), r.getLong(1)))
    val vec = index.toMap
    queries.map { case (qid, qv) =>
      qid -> pairs.filter(_._1 == qid).map { case (_, iid) => (iid, Knn.sqDist(qv, vec(iid))) }
        .sortBy(p => (p._2, p._1)).take(k).toIndexedSeq
    }.toMap
  }

  test("projections are deterministic in the seed") {
    val cfg = EuclideanLsh.Config(8, seed = 99)
    val a = EuclideanLsh.projections(cfg)
    val b = EuclideanLsh.projections(cfg)
    assert(a.flatten.map(_._1.toSeq) sameElements b.flatten.map(_._1.toSeq))
  }

  test("bucketize emits one row per (vector, table)") {
    val cfg = EuclideanLsh.Config(4, nTables = 3)
    val df  = EuclideanLsh.vecDf(spark, randomVecs(10, 4, 1))
    val b   = EuclideanLsh.bucketize(df, "vec", cfg)
    assert(b.count() == 30)
    assert(b.select("table").distinct().count() == 3)
  }

  test("identical vectors always share every bucket") {
    val cfg = EuclideanLsh.Config(4, nTables = 4)
    val v   = Array(0.5, -1.0, 2.0, 0.0)
    EuclideanLsh.projections(cfg).foreach { table =>
      assert(EuclideanLsh.bucketKey(table, cfg.width, v) == EuclideanLsh.bucketKey(table, cfg.width, v.clone()))
    }
    val top = EuclideanLsh.topK(IndexedSeq((1L, v)), IndexedSeq((2L, v.clone())), 5, cfg)
    assert(top == Map(1L -> IndexedSeq((2L, 0.0))))
  }

  test("near neighbours are found with high recall") {
    // index points; queries are tiny perturbations of the first 20 points
    val rng   = new Rng(2)
    val index = randomVecs(200, 8, 3)
    val queries = index.take(20).map { case (id, v) =>
      (id + 1000L, v.map(_ + rng.nextGaussian() * 0.01))
    }
    val cfg  = EuclideanLsh.Config(8, nTables = 8, nBits = 6, width = 2.0)
    val cand = EuclideanLsh.topK(queries, index, index.length, cfg)
    val found = queries.count { case (qid, _) => cand(qid).exists(_._1 == qid - 1000L) }
    assert(found >= 18, s"LSH recalled only $found/20 perturbed twins")
  }

  test("topK ranks the true nearest first for perturbed twins") {
    val index   = randomVecs(100, 8, 4)
    val queries = index.take(10).map { case (id, v) => (id + 500L, v.map(_ + 1e-4)) }
    val cfg = EuclideanLsh.Config(8, nTables = 10, nBits = 4, width = 3.0)
    val top = EuclideanLsh.topK(queries, index, 3, cfg)
    queries.foreach { case (qid, _) =>
      assert(top(qid).headOption.map(_._1).contains(qid - 500L), s"query $qid top-1 = ${top(qid).headOption}")
    }
  }

  test("exactTopK agrees with driver-side Knn reference") {
    val index   = randomVecs(50, 6, 5)
    val queries = randomVecs(8, 6, 6).map { case (id, v) => (id + 100, v) }
    val spark_  = EuclideanLsh.exactTopK(
      EuclideanLsh.vecDf(spark, queries), EuclideanLsh.vecDf(spark, index), 5)
      .collect().groupBy(_.getLong(0)).view
      .mapValues(_.sortBy(_.getInt(3)).map(_.getLong(1)).toSeq).toMap
    val ref = Knn.topK(queries, index, 5)
      .view.mapValues(_.map(_._1)).toMap
    queries.foreach { case (qid, _) =>
      assert(spark_(qid) == ref(qid), s"query $qid: spark=${spark_(qid)} ref=${ref(qid)}")
    }
  }

  test("LSH topK recall vs exact on clustered data is reasonable") {
    val (index, queries) = clustered()
    val cfg = EuclideanLsh.Config(8, nTables = 8, nBits = 6, width = 4.0)
    val lsh = EuclideanLsh.topK(queries, index, 5, cfg).view.mapValues(_.map(_._1).toSet).toMap
    val exact = Knn.topK(queries, index, 5)
      .view.mapValues(_.map(_._1).toSet).toMap
    val recalls = queries.map { case (qid, _) =>
      val e = exact(qid)
      lsh(qid).intersect(e).size.toDouble / e.size
    }
    val mean = recalls.sum / recalls.length
    assert(mean > 0.8, s"mean LSH recall@5 = $mean")
  }

  test("topK equals bucketize's bucket join re-ranked exactly, on random data") {
    val index   = randomVecs(200, 8, 3)
    val queries = randomVecs(40, 8, 10).map { case (id, v) => (id + 1000L, v) }
    val cfg = EuclideanLsh.Config(8, nTables = 8, nBits = 4, width = 2.0)
    val top = EuclideanLsh.topK(queries, index, 7, cfg)
    assert(top.values.exists(_.nonEmpty) && top.values.exists(_.length < 7))
    assert(top == joinTopK(queries, index, 7, cfg))
  }

  test("topK equals bucketize's bucket join re-ranked exactly, on clustered data") {
    val (index, queries) = clustered()
    val cfg = EuclideanLsh.Config(8, nTables = 8, nBits = 6, width = 4.0)
    assert(EuclideanLsh.topK(queries, index, 5, cfg) == joinTopK(queries, index, 5, cfg))
  }

  test("a query that shares no bucket with the index gets an empty list") {
    // buckets a thousandth wide, queries a thousand away
    val cfg     = EuclideanLsh.Config(4, nTables = 4, nBits = 4, width = 1e-3)
    val index   = randomVecs(20, 4, 8)
    val queries = randomVecs(5, 4, 9).map { case (id, v) => (id + 100L, v.map(_ * 1e3)) }
    val top = EuclideanLsh.topK(queries, index, 3, cfg)
    assert(top == queries.map(_._1 -> IndexedSeq.empty).toMap)
    assert(top == joinTopK(queries, index, 3, cfg))
  }

  test("index vectors at the same distance come back in id order") {
    // buckets far wider than the data, so every vector shares them
    val cfg   = EuclideanLsh.Config(2, nTables = 2, nBits = 2, width = 1e6)
    val index = IndexedSeq((9L, Array(1.0, 0.0)), (4L, Array(0.0, -1.0)), (2L, Array(3.0, 0.0)), (6L, Array(-1.0, 0.0)))
    val top   = EuclideanLsh.topK(IndexedSeq((0L, Array(0.0, 0.0))), index, 3, cfg)
    assert(top == Map(0L -> IndexedSeq((4L, 1.0), (6L, 1.0), (9L, 1.0))))
  }
}
