package repro.er

import org.apache.spark.sql.DataFrame

/** One ER task instance, mirroring the shape of the paper's Table II rows.
  *
  * Tables `a` and `b` have columns `id: Long, a0 … a{arity-1}: String`
  * (aligned attributes, as the paper requires). `matches` is the ground
  * truth duplicate set `(idA, idB)`. `train` / `test` are labeled pair sets
  * `(idA, idB, label)` with label 1 = duplicate, 0 = non-duplicate, playing
  * the role of the benchmark-provided training/test splits.
  */
final case class ErDataset(
    name: String,
    clean: Boolean,
    arity: Int,
    a: DataFrame,
    b: DataFrame,
    matches: DataFrame,
    train: DataFrame,
    test: DataFrame,
) {
  def attrCols: Seq[String] = (0 until arity).map(i => s"a$i")

  /** Collect the (id, attribute values) tuples of table `a` or `b`; a null value reads as "". */
  def collectTuples(df: DataFrame): Seq[(Long, Array[String])] = {
    val cols = attrCols
    df.collect().toSeq.map { r =>
      r.getLong(r.fieldIndex("id")) -> cols.map { c =>
        val v = r.get(r.fieldIndex(c)); if (v == null) "" else v.toString
      }.toArray
    }
  }
}

/** A labeled tuple pair materialized on the driver for model training. */
final case class LabeledPair(idA: Long, idB: Long, label: Int)
