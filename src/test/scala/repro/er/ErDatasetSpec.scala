package repro.er

import java.util.concurrent.{ConcurrentLinkedQueue, CountDownLatch, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.types._
import repro.SparkSpec
import repro.core.Vaer
import repro.data.ErSynth
import repro.ir.IrProviders
import scala.jdk.CollectionConverters._

/** A synthetic dataset is built and read on the driver: its frames are local
  * relations, so reading them starts no Spark job.
  */
class ErDatasetSpec extends SparkSpec {
  private implicit def s: SparkSession = spark

  private lazy val ds = ErSynth.generateTiny(spark, "Rest.")

  /** The job group of every Spark job that `body` starts, in start order.
    *
    * The listener bus is asynchronous but delivers events in order, so the
    * jobs of `body` are the ones seen between a sentinel job run before it
    * and one run after it, each under its own job group.
    */
  private def jobGroupsOf(body: => Unit): Seq[String] = {
    val sc     = spark.sparkContext
    val groups = new ConcurrentLinkedQueue[String]
    val done   = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = {
        val g = String.valueOf(Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull)
        groups.add(g)
        if (g == "sentinel-after") done.countDown()
      }
    }
    def sentinel(group: String): Unit = {
      sc.setJobGroup(group, group)
      try sc.parallelize(Seq(1), 1).count()
      finally sc.clearJobGroup()
    }
    sc.addSparkListener(listener)
    try {
      sentinel("sentinel-before")
      body
      sentinel("sentinel-after")
      assert(done.await(60, TimeUnit.SECONDS), "the listener never saw the closing sentinel job")
    } finally sc.removeSparkListener(listener)
    groups.asScala.toSeq.dropWhile(_ != "sentinel-before").drop(1).takeWhile(_ != "sentinel-after")
  }

  test("generating and reading a dataset launches no Spark job") {
    val jobs = jobGroupsOf {
      val d = ErSynth.generateTiny(spark, "Rest.", seed = 5)
      d.collectTuples()
      Vaer.collectPairs(d.train)
      d.matches.collect()
      IrProviders.all(dim = 16).foreach(_.compute(d))
    }
    assert(jobs.isEmpty, s"${jobs.length} Spark jobs started")
  }

  test("the five frames keep their schemas") {
    val table = StructType(StructField("id", LongType, nullable = false) +:
      (0 until 6).map(i => StructField(s"a$i", StringType, nullable = true)))
    val idPair = Seq(StructField("idA", LongType, nullable = false), StructField("idB", LongType, nullable = false))
    val labeled = StructType(idPair :+ StructField("label", IntegerType, nullable = false))
    assert(ds.a.schema == table)
    assert(ds.b.schema == table)
    assert(ds.matches.schema == StructType(idPair))
    assert(ds.train.schema == labeled)
    assert(ds.test.schema == labeled)
  }

  test("collectTuples reads A's ids in order, then B's") {
    val tuples = ds.collectTuples()
    val (nA, nB) = (ds.a.count(), ds.b.count())
    assert(tuples.map(t => (t._1, t._2)) ==
      (0L until nA).map(("A", _)) ++ (0L until nB).map(("B", _)))
    assert(tuples.forall(_._3.length == ds.arity))
  }
}
