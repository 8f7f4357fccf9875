package repro.nn

/** Shuffled minibatch epochs, the training loop of the VAE and of the matcher. */
object Minibatch {

  /** Runs `epochs` passes over `items`, each a fresh `rng` shuffle cut into
    * batches of `batchSize`; `step` trains on one batch and returns its loss.
    * Returns each epoch's mean batch loss.
    */
  def run[A](items: IndexedSeq[A], batchSize: Int, epochs: Int, rng: Rng)
            (step: IndexedSeq[A] => Double): Seq[Double] = {
    val idx = Array.tabulate(items.length)(identity)
    (0 until epochs).map { _ =>
      rng.shuffle(idx)
      val losses = idx.grouped(batchSize).map(b => step(b.toIndexedSeq.map(items))).toArray
      if (losses.isEmpty) 0.0 else losses.sum / losses.length
    }
  }
}
