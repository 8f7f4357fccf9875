package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.ir.IrSet
import repro.nn.{Mat, Rng}

class RepresentSpec extends AnyFunSuite {

  private val cfg = VaerConfig(irDim = 4, hidden = 8, latent = 3)

  private def irSet(arity: Int): IrSet = {
    val rng = new Rng(1)
    val irs = (for {
      side <- Seq("A", "B"); id <- 0L until 5L
    } yield (side, id) -> Array.fill(arity)(Array.fill(4)(rng.nextGaussian()))).toMap
    IrSet("test", 4, arity, irs)
  }

  test("encodeAll covers every tuple with (mu, sigma) per attribute") {
    val vae = new VaeModel(cfg, new Rng(2))
    val reprs = Represent.encodeAll(vae, irSet(3))
    assert(reprs.size == 10)
    reprs.values.foreach { r =>
      assert(r.arity == 3)
      r.mu.foreach(v => assert(v.length == 3))
      r.sigma.foreach(v => assert(v.forall(_ > 0)))
    }
  }

  test("encodeAll agrees with direct batch encoding") {
    val vae = new VaeModel(cfg, new Rng(3))
    val irs = irSet(2)
    val reprs = Represent.encodeAll(vae, irs)
    val (mu, sigma) = vae.encodeBatch(Mat.fromRows(Seq(irs("A", 0L)(1))))
    assert(reprs(("A", 0L)).mu(1).toSeq == mu.row(0).toSeq)
    assert(reprs(("A", 0L)).sigma(1).toSeq == sigma.row(0).toSeq)
  }

  test("arity override truncates wider tuples") {
    val vae = new VaeModel(cfg, new Rng(4))
    val reprs = Represent.encodeAll(vae, irSet(5).withArity(2))
    assert(reprs.values.head.arity == 2)
  }

  test("arity override pads narrower tuples with empty-column encodings") {
    val vae = new VaeModel(cfg, new Rng(5))
    val reprs = Represent.encodeAll(vae, irSet(2).withArity(4))
    assert(reprs.values.head.arity == 4)
    // padded attributes are the encoding of the zero IR — identical across tuples
    val p1 = reprs(("A", 0L)).mu(3).toSeq
    val p2 = reprs(("B", 3L)).mu(3).toSeq
    assert(p1 == p2)
  }

  test("irAsRepr exposes IRs as mu with zero sigma") {
    val irs = irSet(2)
    val reprs = Represent.irAsRepr(irs)
    assert(reprs(("A", 1L)).mu(0).toSeq == irs("A", 1L)(0).toSeq)
    assert(reprs.values.forall(_.sigma.forall(_.forall(_ == 0.0))))
  }

  test("irAsRepr W2 distance reduces to squared euclidean of IRs") {
    val irs = irSet(2)
    val reprs = Represent.irAsRepr(irs)
    val d = Wasserstein.tupleW2sq(reprs(("A", 0L)), reprs(("B", 0L)))
    val expected = (0 until 2).map { ai =>
      repro.er.Knn.sqDist(irs("A", 0L)(ai), irs("B", 0L)(ai))
    }.sum
    assert(math.abs(d - expected) < 1e-12)
  }
}
