package repro.nn

/** Microbenchmark of the product kernel behind [[Mat.*]], `mulT` and `tMul`,
  * the measurement behind [[Mat.ParallelWork]] (DESIGN.md §5). Not a test
  * suite; run it on an otherwise idle machine with
  *
  * {{{
  *   sbt "Test/runMain repro.nn.MatKernelBench"
  * }}}
  *
  * For each product op(A) · op(B) of shape m × k × n it times the same
  * product (op(A) a ReLU output, about half its entries exact zeros; op(B)
  * Gaussian) on the calling thread and split over the ForkJoin pool, each the
  * median of five samples of at least 50 ms. `A^T` marks an A read transposed
  * in place (a weight gradient `xᵀ · g`), `B^T` a B copied from its columns
  * (an input gradient `g · Wᵀ`). It prints, per shape, the single-thread
  * rate in nominal multiply-adds (m·k·n) and in performed ones (the non-zero
  * op(A) entries times n, what the zero-skip leaves), and the
  * split/sequential time ratio: below 1 the split wins.
  */
object MatKernelBench {

  private final case class Shape(m: Int, k: Int, n: Int, aT: Boolean = false, bT: Boolean = false) {
    def label: String = s"$m x $k x $n${if (aT) " A^T" else ""}${if (bT) " B^T" else ""}"
  }

  private val Shapes: Seq[Shape] = Seq(
    (4, 64, 64), (8, 64, 32), (10, 128, 32), (16, 64, 64), (32, 64, 32),
    (32, 64, 64), (64, 64, 32), (64, 32, 64), (44, 64, 64), (48, 64, 64),
    (64, 64, 64), (128, 64, 64), (256, 64, 32), (256, 64, 64), (384, 64, 32),
    (384, 64, 64), (64, 128, 64), (64, 384, 64), (384, 64, 1), (32, 32, 1)
  ).map { case (m, k, n) => Shape(m, k, n) } ++ Seq(
    // weight gradients xᵀ · g: the VAE's, the classifier's first layer, the matcher's encoder
    (32, 64, 64), (64, 64, 32), (64, 64, 64), (192, 32, 32), (64, 256, 64), (64, 384, 32), (64, 384, 64)
  ).map { case (m, k, n) => Shape(m, k, n, aT = true) } ++ Seq(
    // input gradients g · Wᵀ: the VAE's, the classifier's first layer, the matcher's encoder
    (64, 32, 64), (32, 32, 192), (256, 32, 64), (384, 32, 64)
  ).map { case (m, k, n) => Shape(m, k, n, bT = true) }

  private val Samples  = 5
  private val SampleNs = 50L * 1000 * 1000

  private def relu(m: Mat): Mat = m.map(v => if (v > 0) v else 0.0)

  /** The last result, kept so that no product can be optimized away. */
  @volatile private var sink: Mat = _

  private def run(body: () => Mat, reps: Int): Long = {
    val t0 = System.nanoTime()
    var r = 0
    while (r < reps) { sink = body(); r += 1 }
    System.nanoTime() - t0
  }

  /** Nanoseconds per call of `body`: the median of [[Samples]] samples. */
  private def timeNs(body: () => Mat): Double = {
    var reps = 1
    while (run(body, reps) < SampleNs) reps *= 2
    val samples = Array.fill(Samples)(run(body, reps).toDouble / reps).sorted
    samples(Samples / 2)
  }

  def main(args: Array[String]): Unit = {
    val rng = new Rng(5)
    // (op(A), A as stored, B as stored)
    val operands = Shapes.map { s =>
      val opA = relu(Mat.randn(s.m, s.k, rng)); val opB = Mat.randn(s.k, s.n, rng)
      (opA, if (s.aT) opA.t else opA, if (s.bT) opB.t else opB)
    }
    def product(s: Shape, a: Mat, b: Mat, split: Boolean): () => Mat =
      () => Mat.product(a, s.aT, b, s.bT, null, Activation.Linear, split)
    // JIT warm-up: every shape on both paths before anything is timed.
    Shapes.zip(operands).foreach { case (s, (_, a, b)) =>
      Seq(false, true).foreach(split => run(product(s, a, b, split), 2000))
    }

    println(s"processors ${Mat.Parallelism}, split at ${Mat.ParallelWork} multiply-adds")
    println(f"${"m x k x n"}%-18s ${"work"}%9s ${"seq us"}%9s ${"nominal G/s"}%12s ${"performed G/s"}%14s ${"split/seq"}%10s")
    Shapes.zip(operands).foreach { case (s, (opA, a, b)) =>
      val work      = s.m.toLong * s.k * s.n
      val performed = opA.data.count(_ != 0.0).toLong * s.n
      val seq       = timeNs(product(s, a, b, split = false))
      val split     = timeNs(product(s, a, b, split = true))
      println(f"${s.label}%-18s $work%9d ${seq / 1e3}%9.2f ${work / seq}%12.2f ${performed / seq}%14.2f ${split / seq}%10.2f")
    }
  }
}
