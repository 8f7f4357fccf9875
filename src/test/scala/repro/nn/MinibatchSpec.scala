package repro.nn

import org.scalatest.funsuite.AnyFunSuite

class MinibatchSpec extends AnyFunSuite {

  private val items = IndexedSeq("a", "b", "c", "d", "e", "f", "g")

  test("batch size 1 visits every item once per epoch, in the order of one index array reshuffled each epoch") {
    val visited = Seq.newBuilder[String]
    Minibatch.run(items, 1, 4, new Rng(5)) { batch =>
      assert(batch.length == 1)
      visited += batch.head
      0.0
    }
    val rng = new Rng(5)
    val idx = Array.tabulate(items.length)(identity)
    val expected = (0 until 4).flatMap { _ => rng.shuffle(idx); idx.map(items) }
    val got = visited.result()
    assert(got == expected)
    got.grouped(items.length).foreach(epoch => assert(epoch.sorted == items))
  }

  test("returns each epoch's mean step loss") {
    var calls = 0
    val stepLosses = Seq.newBuilder[Double]
    val means = Minibatch.run(items, 3, 2, new Rng(6)) { batch =>
      calls += 1
      val loss = calls * 10.0 + batch.length
      stepLosses += loss
      loss
    }
    // 7 items in batches of 3: steps of 3, 3 and 1 items per epoch
    val expected = stepLosses.result().grouped(3).map(ls => ls.sum / ls.length).toSeq
    assert(calls == 6)
    assert(means == expected)
    assert(means == Seq((13.0 + 23.0 + 31.0) / 3, (43.0 + 53.0 + 61.0) / 3))
  }

  test("an empty item list gives 0.0 per epoch without a step") {
    val means = Minibatch.run(IndexedSeq.empty[String], 4, 3, new Rng(7)) { _ =>
      fail("step called on an empty item list")
    }
    assert(means == Seq(0.0, 0.0, 0.0))
  }
}
