package repro.nn

import java.util.IdentityHashMap

/** Adam optimizer (Kingma & Ba). lr = 0.001 per paper Table III. */
final class Adam(val lr: Double = 0.001) {
  private val beta1 = 0.9
  private val beta2 = 0.999
  private val eps   = 1e-8
  private final case class State(m: Array[Double], v: Array[Double])
  private val states = new IdentityHashMap[Param, State]()
  private var t = 0

  /** Apply one update from each param's accumulated gradient, then zero it. */
  def step(params: Seq[Param]): Unit = {
    t += 1
    val bc1 = 1.0 - math.pow(beta1, t)
    val bc2 = 1.0 - math.pow(beta2, t)
    params.foreach { p =>
      var st = states.get(p)
      if (st == null) {
        st = State(new Array[Double](p.value.data.length), new Array[Double](p.value.data.length))
        states.put(p, st)
      }
      val g = p.grad.data; val w = p.value.data
      var i = 0
      while (i < w.length) {
        st.m(i) = beta1 * st.m(i) + (1 - beta1) * g(i)
        st.v(i) = beta2 * st.v(i) + (1 - beta2) * g(i) * g(i)
        val mh = st.m(i) / bc1
        val vh = st.v(i) / bc2
        w(i) -= lr * mh / (math.sqrt(vh) + eps)
        i += 1
      }
      p.zeroGrad()
    }
  }
}
