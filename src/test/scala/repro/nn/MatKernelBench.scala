package repro.nn

/** Microbenchmark of the product kernel behind [[Mat.*]], the measurement
  * behind [[Mat.ParallelWork]] (DESIGN.md §5). Not a test suite; run it on an
  * otherwise idle machine with
  *
  * {{{
  *   sbt "Test/runMain repro.nn.MatKernelBench"
  * }}}
  *
  * For each shape m × k × n it times the same product (A a ReLU output, about
  * half its entries exact zeros; B Gaussian) on the calling thread and split
  * over the ForkJoin pool, each the median of five samples of at least 50 ms.
  * It prints, per shape, the single-thread rate in nominal multiply-adds
  * (m·k·n) and in performed ones (the non-zero A entries times n, what the
  * zero-skip leaves), and the split/sequential time ratio: below 1 the split
  * wins.
  */
object MatKernelBench {

  private val Shapes: Seq[(Int, Int, Int)] = Seq(
    (4, 64, 64), (8, 64, 32), (10, 128, 32), (16, 64, 64), (32, 64, 32),
    (32, 64, 64), (64, 64, 32), (64, 32, 64), (44, 64, 64), (48, 64, 64),
    (64, 64, 64), (128, 64, 64), (256, 64, 32), (256, 64, 64), (384, 64, 32),
    (384, 64, 64), (64, 128, 64), (64, 384, 64), (384, 64, 1))

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
    val operands = Shapes.map { case (m, k, n) => (relu(Mat.randn(m, k, rng)), Mat.randn(k, n, rng)) }
    // JIT warm-up: every shape on both paths before anything is timed.
    operands.foreach { case (a, b) => Seq(false, true).foreach(s => run(() => Mat.product(a, b, s), 2000)) }

    println(s"processors ${Mat.Parallelism}, split at ${Mat.ParallelWork} multiply-adds")
    println(f"${"m x k x n"}%-14s ${"work"}%9s ${"seq us"}%9s ${"nominal G/s"}%12s ${"performed G/s"}%14s ${"split/seq"}%10s")
    Shapes.zip(operands).foreach { case ((m, k, n), (a, b)) =>
      val work      = m.toLong * k * n
      val performed = a.data.count(_ != 0.0).toLong * n
      val seq       = timeNs(() => Mat.product(a, b, split = false))
      val split     = timeNs(() => Mat.product(a, b, split = true))
      println(f"${s"$m x $k x $n"}%-14s $work%9d ${seq / 1e3}%9.2f ${work / seq}%12.2f ${performed / seq}%14.2f ${split / seq}%10.2f")
    }
  }
}
