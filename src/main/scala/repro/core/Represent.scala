package repro.core

import repro.ir.IrSet
import repro.nn.Mat

/** Bulk encoding of tuples into latent representations (§III outputs).
  *
  * Applies the trained variational encoder to every attribute IR of every
  * tuple and returns per-tuple [[TupleRepr]]s. Encoding is batched per
  * attribute column for cache-friendliness.
  */
object Represent {

  /** Encode one IR set with a VAE. A transferred model that expects a
    * different arity takes `irs.withArity(a)` (§VI-D).
    */
  def encodeAll(vae: VaeModel, irs: IrSet): Map[(String, Long), TupleRepr] = {
    val keys = irs.irs.keys.toIndexedSeq
    // attribute i of every tuple as one batch
    val perAttr = (0 until irs.arity).map(ai => vae.encodeBatch(Mat.fromRows(keys.map(k => irs.irs(k)(ai)))))
    keys.zipWithIndex.map { case (k, row) =>
      k -> TupleRepr(perAttr.map(_._1.row(row)).toArray, perAttr.map(_._2.row(row)).toArray)
    }.toMap
  }

  /** IRs themselves as degenerate representations (μ = IR, σ = 0) — the
    * left-hand-side baselines of Table IV search raw IRs.
    */
  def irAsRepr(irs: IrSet): Map[(String, Long), TupleRepr] =
    irs.irs.map { case (k, attrs) =>
      val mu = attrs.map(_.clone())
      k -> TupleRepr(mu, mu.map(v => new Array[Double](v.length)))
    }
}
