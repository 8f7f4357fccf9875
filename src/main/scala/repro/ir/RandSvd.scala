package repro.ir

import repro.nn.{Mat, Rng}

/** Randomized truncated SVD for the LSA intermediate representations.
  *
  * Input is a sparse document-term matrix A (docs x vocab, TF-IDF weights).
  * We compute the rank-k LSA document embeddings U_k Σ_k via the standard
  * randomized range finder (Halko et al.): Y = A Ω, one power iteration,
  * Q = orth(Y), B = Qᵀ A, eigendecomposition of B Bᵀ. Deterministic given
  * the seed. Sizes here are small (≤ ~60k docs, ≤ ~30k terms, k ≤ 128) so a
  * driver-side implementation is appropriate, fed by the driver-side
  * [[TfIdf.matrix]].
  */
object RandSvd {

  /** Sparse row: (termIndex, weight) pairs. */
  type SparseRow = Seq[(Int, Double)]

  /** Returns docs x k embedding matrix (rows align with `rows` order). */
  def docEmbeddings(rows: IndexedSeq[SparseRow], vocabSize: Int, k: Int,
                    rng: Rng, oversample: Int = 8, powerIters: Int = 1): Mat = {
    val n = rows.length
    require(n > 0, "empty corpus")
    val r = math.min(k + oversample, math.max(1, math.min(n, vocabSize)))

    // Y = A * Omega
    var omega = Mat.randn(vocabSize, r, rng)
    var y     = mulSparse(rows, omega, r)

    // Power iterations: Y <- A * (A^T * orth(Y))
    var it = 0
    while (it < powerIters) {
      val q  = orthonormalize(y)
      val at = mulSparseT(rows, q, vocabSize) // vocab x r
      y = mulSparse(rows, at, r)
      it += 1
    }

    val q = orthonormalize(y)                 // docs x r
    val b = mulSparseT(rows, q, vocabSize).t  // r x vocab  (B = Q^T A)

    // G = B B^T (r x r), symmetric eigendecomposition
    val g = b.mulT(b)
    val (eigVals, eigVecs) = jacobiEigen(g)

    // Order by eigenvalue descending, keep top-k
    val order = eigVals.zipWithIndex.sortBy(-_._1).map(_._2).take(math.min(k, r))
    // Doc embeddings = Q * Ubar * Sigma ; Sigma = sqrt(max(lambda, 0))
    val ubarS = Mat.zeros(r, order.length)
    for ((col, j) <- order.zipWithIndex) {
      val s = math.sqrt(math.max(eigVals(col), 0.0))
      var i = 0
      while (i < r) { ubarS(i, j) = eigVecs(i, col) * s; i += 1 }
    }
    val emb = q * ubarS
    if (order.length < k) padCols(emb, k) else emb
  }

  private def padCols(m: Mat, k: Int): Mat = {
    val out = Mat.zeros(m.rows, k)
    var i = 0
    while (i < m.rows) { System.arraycopy(m.data, i * m.cols, out.data, i * k, m.cols); i += 1 }
    out
  }

  /** (docs x vocab sparse) * (vocab x r dense) -> docs x r. */
  private def mulSparse(rows: IndexedSeq[SparseRow], dense: Mat, r: Int): Mat = {
    val out = Mat.zeros(rows.length, r)
    var i = 0
    while (i < rows.length) {
      rows(i).foreach { case (t, w) =>
        val off = t * r; val oOff = i * r
        var j = 0
        while (j < r) { out.data(oOff + j) += w * dense.data(off + j); j += 1 }
      }
      i += 1
    }
    out
  }

  /** (docs x vocab sparse)^T * (docs x r dense) -> vocab x r. */
  private def mulSparseT(rows: IndexedSeq[SparseRow], dense: Mat, vocabSize: Int): Mat = {
    val r   = dense.cols
    val out = Mat.zeros(vocabSize, r)
    var i = 0
    while (i < rows.length) {
      rows(i).foreach { case (t, w) =>
        val off = t * r; val dOff = i * r
        var j = 0
        while (j < r) { out.data(off + j) += w * dense.data(dOff + j); j += 1 }
      }
      i += 1
    }
    out
  }

  /** Modified Gram–Schmidt column orthonormalization (zero columns dropped to ~0). */
  def orthonormalize(m: Mat): Mat = {
    val out = m.copy()
    val n   = out.rows; val r = out.cols
    var j = 0
    while (j < r) {
      var jj = 0
      while (jj < j) {
        var dot = 0.0; var i = 0
        while (i < n) { dot += out(i, j) * out(i, jj); i += 1 }
        i = 0
        while (i < n) { out(i, j) -= dot * out(i, jj); i += 1 }
        jj += 1
      }
      var nrm = 0.0; var i = 0
      while (i < n) { nrm += out(i, j) * out(i, j); i += 1 }
      nrm = math.sqrt(nrm)
      if (nrm > 1e-12) { i = 0; while (i < n) { out(i, j) /= nrm; i += 1 } }
      else { i = 0; while (i < n) { out(i, j) = 0.0; i += 1 } }
      j += 1
    }
    out
  }

  /** Cyclic Jacobi eigendecomposition of a symmetric matrix.
    * Returns (eigenvalues, eigenvector matrix with eigenvectors in columns).
    */
  def jacobiEigen(sym: Mat, maxSweeps: Int = 50, tol: Double = 1e-12): (Array[Double], Mat) = {
    val n = sym.rows
    require(sym.cols == n, "jacobiEigen expects a square matrix")
    val a = sym.copy()
    val v = Mat.zeros(n, n)
    var i = 0
    while (i < n) { v(i, i) = 1.0; i += 1 }

    var sweep = 0
    var off   = offDiagNorm(a)
    while (sweep < maxSweeps && off > tol) {
      var p = 0
      while (p < n - 1) {
        var q = p + 1
        while (q < n) {
          val apq = a(p, q)
          if (math.abs(apq) > tol) {
            val theta = (a(q, q) - a(p, p)) / (2.0 * apq)
            val t =
              if (theta == 0.0) 1.0
              else math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1.0))
            val c = 1.0 / math.sqrt(t * t + 1.0)
            val s = t * c
            var k = 0
            while (k < n) {
              val akp = a(k, p); val akq = a(k, q)
              a(k, p) = c * akp - s * akq
              a(k, q) = s * akp + c * akq
              k += 1
            }
            k = 0
            while (k < n) {
              val apk = a(p, k); val aqk = a(q, k)
              a(p, k) = c * apk - s * aqk
              a(q, k) = s * apk + c * aqk
              val vkp = v(k, p); val vkq = v(k, q)
              v(k, p) = c * vkp - s * vkq
              v(k, q) = s * vkp + c * vkq
              k += 1
            }
          }
          q += 1
        }
        p += 1
      }
      off = offDiagNorm(a)
      sweep += 1
    }
    val vals = (0 until n).map(i => a(i, i)).toArray
    (vals, v)
  }

  private def offDiagNorm(a: Mat): Double = {
    var s = 0.0
    var i = 0
    while (i < a.rows) {
      var j = 0
      while (j < a.cols) { if (i != j) s += a(i, j) * a(i, j); j += 1 }
      i += 1
    }
    math.sqrt(s)
  }
}
