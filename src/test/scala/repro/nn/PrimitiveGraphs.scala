package repro.nn

/** Layers built from the tape's primitive ops, one node per step: the graphs
  * that the fused ops ([[Tape.dense]], [[Tape.w2Features]] with
  * [[Tape.rowSums]]) replace, and the references they are tested against.
  */
object PrimitiveGraphs {

  /** `matmul`, `addBias`, then the activation op. */
  def dense(t: Tape, x: Node, d: Dense): Node = {
    val z = t.addBias(t.matmul(x, t.param(d.w)), t.param(d.b))
    d.activation match {
      case "linear"  => z
      case "relu"    => t.relu(z)
      case "sigmoid" => t.sigmoid(z)
      case "tanh"    => t.tanh(z)
    }
  }

  def mlp(t: Tape, x: Node, m: Mlp): Node = m.layers.foldLeft(x)((h, l) => dense(t, h, l))

  /** The pair-major W₂ features of `mu` and `sigma` (2·blocks row blocks of
    * B rows, block q paired with block blocks + q) and each block's W₂² from
    * slices, `sub`, `square`, `add` and a product with a column of ones;
    * nodes are recorded in the order the matcher records them, the W₂²
    * slices before the features' concatenation.
    */
  def w2(t: Tape, mu: Node, sigma: Node, blocks: Int): (Node, IndexedSeq[Node]) = {
    val b = mu.value.rows / (2 * blocks)
    def side(n: Node, first: Int): Node = t.sliceRows(n, first * b, (first + blocks) * b)
    val dist = t.add(t.square(t.sub(side(mu, 0), side(mu, blocks))),
                     t.square(t.sub(side(sigma, 0), side(sigma, blocks))))
    val ones = t.const(new Mat(mu.value.cols, 1, Array.fill(mu.value.cols)(1.0)))
    val w2   = t.matmul(dist, ones)
    val distVecs = (0 until blocks).map(q => t.sliceRows(dist, q * b, (q + 1) * b))
    val w2s      = (0 until blocks).map(q => t.sliceRows(w2, q * b, (q + 1) * b))
    (t.concatCols(distVecs), w2s)
  }

  def same(a: Mat, b: Mat): Boolean =
    a.rows == b.rows && a.cols == b.cols && java.util.Arrays.equals(a.data, b.data)
}
