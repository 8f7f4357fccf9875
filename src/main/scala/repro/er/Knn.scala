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

  /** Ascending (sqDist, id): the order of every answer, ties going to the lower id. */
  private val Nearer: Ordering[(Long, Double)] = (x: (Long, Double), y: (Long, Double)) => {
    val c = java.lang.Double.compare(x._2, y._2)
    if (c != 0) c else java.lang.Long.compare(x._1, y._1)
  }

  /** For each query id: the k nearest index entries as (id, sqDist), ascending
    * by distance, then id; an empty answer for each query when k = 0.
    *
    * Queries are scanned in parallel; a single query has nothing to split and
    * is scanned on the caller's thread.
    */
  def topK(queries: IndexedSeq[(Long, Array[Double])],
           index: IndexedSeq[(Long, Array[Double])], k: Int): Map[Long, IndexedSeq[(Long, Double)]] = {
    require(k >= 0, s"k must be non-negative, got $k")
    def nearest(q: (Long, Array[Double])): (Long, IndexedSeq[(Long, Double)]) = {
      // bounded selection: the k best seen so far, the worst on top
      val best = new java.util.PriorityQueue[(Long, Double)](math.max(1, k), Nearer.reverse)
      if (k > 0) index.foreach { case (iid, iv) =>
        val cand = (iid, sqDist(q._2, iv))
        if (best.size < k) best.add(cand)
        else if (Nearer.lt(cand, best.peek())) { best.poll(); best.add(cand) }
      }
      q._1 -> best.toArray(Array.empty[(Long, Double)]).sorted(Nearer).toIndexedSeq
    }
    if (queries.lengthCompare(1) <= 0) queries.map(nearest).toMap
    else queries.par.map(nearest).seq.toMap
  }
}
