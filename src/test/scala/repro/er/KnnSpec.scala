package repro.er

import org.scalatest.funsuite.AnyFunSuite
import repro.nn.Rng

class KnnSpec extends AnyFunSuite {

  private def naiveTopK(q: Array[Double], index: IndexedSeq[(Long, Array[Double])], k: Int) =
    index.map { case (id, v) => (id, Knn.sqDist(q, v)) }
      .sortBy(p => (p._2, p._1)).take(k)

  test("sqDist is the squared euclidean distance") {
    assert(Knn.sqDist(Array(0.0, 0.0), Array(3.0, 4.0)) == 25.0)
    assert(Knn.sqDist(Array(1.0), Array(1.0)) == 0.0)
  }

  test("topK matches naive sort for random data") {
    val rng = new Rng(1)
    val index = IndexedSeq.tabulate(100)(i => (i.toLong, Array.fill(5)(rng.nextGaussian())))
    val queries = IndexedSeq.tabulate(10)(i => (1000L + i, Array.fill(5)(rng.nextGaussian())))
    val got = Knn.topK(queries, index, 7)
    queries.foreach { case (qid, qv) =>
      val expect = naiveTopK(qv, index, 7)
      assert(got(qid).map(_._1) == expect.map(_._1), s"query $qid")
      got(qid).zip(expect).foreach { case ((_, d1), (_, d2)) => assert(math.abs(d1 - d2) < 1e-12) }
    }
  }

  test("k larger than index returns everything sorted") {
    val index = IndexedSeq((1L, Array(1.0)), (2L, Array(5.0)), (3L, Array(2.0)))
    val got = Knn.topK(IndexedSeq((9L, Array(0.0))), index, 10)
    assert(got(9L).map(_._1) == Seq(1L, 3L, 2L))
  }

  test("ties broken deterministically by id") {
    val index = IndexedSeq((5L, Array(1.0)), (2L, Array(1.0)), (9L, Array(1.0)))
    val got = Knn.topK(IndexedSeq((0L, Array(0.0))), index, 2)
    assert(got(0L).map(_._1) == Seq(2L, 5L))
  }

  test("a tie at the k-th place keeps the lower id") {
    val index = IndexedSeq((1L, Array(2.0)), (2L, Array(2.0)), (3L, Array(0.0)))
    val got = Knn.topK(IndexedSeq((0L, Array(0.0))), index, 2)
    assert(got(0L) == IndexedSeq((3L, 0.0), (1L, 4.0)))
  }

  /** Integer-valued vectors over a few values: most distances tie. */
  private def tiedVectors(n: Int, firstId: Long, rng: Rng): IndexedSeq[(Long, Array[Double])] =
    IndexedSeq.tabulate(n)(i => (firstId + i, Array.fill(3)(rng.nextInt(3).toDouble)))

  test("topK matches naive sort on data full of ties") {
    val rng = new Rng(2)
    (1 to 20).foreach { round =>
      val ids = Array.range(0, 40); rng.shuffle(ids)
      val index = ids.toIndexedSeq.map(i => (i.toLong, Array.fill(3)(rng.nextInt(3).toDouble)))
      val queries = tiedVectors(5, 1000L, rng)
      val k = 1 + rng.nextInt(12)
      val got = Knn.topK(queries, index, k)
      queries.foreach { case (qid, qv) => assert(got(qid) == naiveTopK(qv, index, k), s"round $round query $qid k $k") }
    }
  }

  test("one query's answer equals its entry in a many-query call") {
    val rng = new Rng(3)
    val index = tiedVectors(60, 0L, rng)
    val queries = tiedVectors(8, 1000L, rng)
    val many = Knn.topK(queries, index, 10)
    queries.foreach { q =>
      val one = Knn.topK(IndexedSeq(q), index, 10)
      assert(one.keySet == Set(q._1))
      assert(one(q._1) == many(q._1))
    }
    assert(queries.exists(q => many(q._1).map(_._2).distinct.size < 10), "no tied distances among the answers")
  }
}
