package repro.er

import scala.collection.parallel.CollectionConverters._

/** Exact brute-force top-K nearest neighbours (squared Euclidean).
  *
  * The evaluation-side search of §VI-B runs at scaled cardinalities
  * (≤ ~5k x ~5k), where an exact driver-side scan is faster than a shuffle.
  * Algorithm 1 uses the LSH candidates of [[repro.lsh.EuclideanLsh]]
  * instead, re-ranked with [[sqDist]] and checked against this reference in
  * tests.
  */
object Knn {

  def sqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    s
  }

  /** For each query id: the k nearest index entries as (id, sqDist), ascending. */
  def topK(queries: IndexedSeq[(Long, Array[Double])],
           index: IndexedSeq[(Long, Array[Double])], k: Int): Map[Long, IndexedSeq[(Long, Double)]] =
    queries.par.map { case (qid, qv) =>
      // simple bounded selection: keep the k best seen so far
      val best = new java.util.PriorityQueue[(Long, Double)](
        math.max(1, k), (x: (Long, Double), y: (Long, Double)) => java.lang.Double.compare(y._2, x._2))
      index.foreach { case (iid, iv) =>
        val d = sqDist(qv, iv)
        if (best.size < k) best.add((iid, d))
        else if (d < best.peek()._2) { best.poll(); best.add((iid, d)) }
      }
      val arr = best.toArray(Array.empty[(Long, Double)]).sortBy(p => (p._2, p._1))
      qid -> arr.toIndexedSeq
    }.seq.toMap
}
