package repro.ir

import org.apache.spark.sql.SparkSession
import repro.er.ErDataset
import repro.nn.{Mat, Rng}
import scala.collection.mutable

/** Per-tuple intermediate representations: (side, id) -> arity x dim vectors. */
final case class IrSet(name: String, dim: Int, arity: Int,
                       irs: Map[(String, Long), Array[Array[Double]]]) {
  def apply(side: String, id: Long): Array[Array[Double]] = irs((side, id))

  /** Pad (with zero-IRs) or truncate every tuple to a fixed arity — the
    * §VI-D rule for feeding a dataset to a *transferred* representation
    * model that expects a different column count.
    */
  def withArity(a: Int): IrSet = {
    if (a == arity) this
    else {
      val zero = new Array[Double](dim)
      IrSet(name, dim, a, irs.map { case (k, attrs) =>
        k -> Array.tabulate(a)(i => if (i < attrs.length) attrs(i) else zero)
      })
    }
  }
}

/** §III-B: a method that turns each attribute value into a similarity-
  * preserving dense vector, independent of the downstream matcher.
  */
trait IrProvider {
  def name: String
  def dim: Int
  /** `spark` is unused: IRs are computed on the driver; it is kept for callers. */
  def compute(ds: ErDataset)(implicit spark: SparkSession): IrSet
}

/** W2V-style IRs: frozen hashed word embeddings averaged per attribute value
  * (stand-in for pre-trained word2vec; see DESIGN.md substitutions).
  */
final class W2vIr(val dim: Int = 64) extends IrProvider {
  val name = "W2V"
  override def compute(ds: ErDataset)(implicit spark: SparkSession): IrSet = {
    val emb = new HashEmb(dim)
    IrSet(name, dim, ds.arity,
      ds.collectTuples().map { case (side, id, attrs) => (side, id) -> attrs.map(emb.sentence) }.toMap)
  }
}

/** BERT-style IRs: hashed word vectors passed through a frozen random
  * "contextual" mixing layer (neighbor pooling + sinusoidal position signal
  * + fixed projection + tanh), then mean-pooled. Stand-in for a frozen
  * pre-trained BERT encoder (DESIGN.md substitutions).
  */
final class BertIr(val dim: Int = 64) extends IrProvider {
  val name = "BERT"

  override def compute(ds: ErDataset)(implicit spark: SparkSession): IrSet = {
    val emb  = new HashEmb(dim, salt = 0xB0B1L)
    val proj = Mat.randn(dim, dim, new Rng(0xBE27L), math.sqrt(1.0 / dim))

    def encode(text: String): Array[Double] = {
      val ts = Tokenize.tokens(text)
      if (ts.isEmpty) return new Array[Double](dim)
      val vecs = ts.map(emb.word).toArray
      val outV = new Array[Double](dim)
      var i = 0
      while (i < vecs.length) {
        val h = new Array[Double](dim)
        var j = 0
        while (j < dim) {
          var ctx = 0.0
          var cnt = 0
          if (i > 0)               { ctx += vecs(i - 1)(j); cnt += 1 }
          if (i < vecs.length - 1) { ctx += vecs(i + 1)(j); cnt += 1 }
          val pos = math.sin((i + 1.0) / math.pow(100.0, j.toDouble / dim))
          h(j) = vecs(i)(j) + (if (cnt > 0) 0.5 * ctx / cnt else 0.0) + 0.1 * pos
          j += 1
        }
        // frozen projection + tanh ("contextual" nonlinearity)
        j = 0
        while (j < dim) {
          var s = 0.0
          var k2 = 0
          while (k2 < dim) { s += h(k2) * proj(k2, j); k2 += 1 }
          outV(j) += math.tanh(s)
          j += 1
        }
        i += 1
      }
      var j = 0
      while (j < dim) { outV(j) /= vecs.length; j += 1 }
      HashEmb.l2normalize(outV)
      outV
    }

    IrSet(name, dim, ds.arity,
      ds.collectTuples().map { case (side, id, attrs) => (side, id) -> attrs.map(encode) }.toMap)
  }
}

/** LSA IRs: TF-IDF over the corpus of all attribute-value "sentences" of
  * both tables, then randomized truncated SVD (true LSA, randomized low-rank
  * step). Each distinct sentence is one document; the corpus is built and
  * weighted on the driver, where the collected tuples already are.
  */
final class LsaIr(val dim: Int = 64) extends IrProvider {
  val name = "LSA"

  override def compute(ds: ErDataset)(implicit spark: SparkSession): IrSet = {
    val tuples = ds.collectTuples()
    // Distinct non-empty sentences -> doc ids.
    val sentences = tuples.flatMap(_._3).map(Tokenize.sentence).filter(_.nonEmpty).distinct.toIndexedSeq
    val docIdx    = sentences.zipWithIndex.toMap

    val empty = new Array[Double](dim)
    if (sentences.isEmpty) {
      return IrSet(name, dim, ds.arity,
        tuples.map { case (s, id, attrs) => (s, id) -> attrs.map(_ => empty.clone()) }.toMap)
    }

    val tfidf = TfIdf.matrix(sentences)
    val emb   = RandSvd.docEmbeddings(tfidf.rows, tfidf.vocab.size, dim, new Rng(0x15AL))

    val docVec: Int => Array[Double] = { i =>
      val v = emb.row(i); HashEmb.l2normalize(v); v
    }
    val cache = mutable.HashMap.empty[String, Array[Double]]
    def irOf(text: String): Array[Double] = {
      val s = Tokenize.sentence(text)
      if (s.isEmpty) empty.clone()
      else cache.getOrElseUpdate(s, docVec(docIdx(s)))
    }

    IrSet(name, dim, ds.arity,
      tuples.map { case (side, id, attrs) => (side, id) -> attrs.map(irOf) }.toMap)
  }
}

/** EmbDI-style IRs (Cappuzzo et al., SIGMOD'20): build a tripartite graph of
  * record / attribute / token nodes, run seeded random walks, train skip-gram
  * with negative sampling over the walks, and average token embeddings per
  * attribute value.
  */
final class EmbdiIr(val dim: Int = 64) extends IrProvider {
  val name = "EmbDI"
  private val WalksPerNode = 2
  private val WalkLen      = 12
  private val Epochs       = 2

  override def compute(ds: ErDataset)(implicit spark: SparkSession): IrSet = {
    val rng = new Rng(0xE3BD1L)
    val tuples = ds.collectTuples()

    // Node universe: tokens, records, attributes.
    val nodeIdx = mutable.LinkedHashMap.empty[String, Int]
    def nid(key: String): Int = nodeIdx.getOrElseUpdate(key, nodeIdx.size)
    val adj = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
    def link(u: Int, v: Int): Unit = {
      adj.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += v
      adj.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += u
    }

    val tokenNodesOf = mutable.HashMap.empty[(String, Long, Int), Seq[Int]]
    tuples.foreach { case (side, id, attrs) =>
      val rec = nid(s"R#$side#$id")
      attrs.zipWithIndex.foreach { case (text, ai) =>
        val attrNode = nid(s"C#$ai")
        val tNodes = Tokenize.tokens(text).map { t =>
          val tn = nid(s"T#$t")
          link(rec, tn); link(attrNode, tn)
          tn
        }
        tokenNodesOf((side, id, ai)) = tNodes
      }
    }

    val n = nodeIdx.size
    val empty = new Array[Double](dim)
    if (n == 0) {
      return IrSet(name, dim, ds.arity,
        tuples.map { case (s, id, attrs) => (s, id) -> attrs.map(_ => empty.clone()) }.toMap)
    }

    // Seeded uniform random walks from every node.
    val counts = new Array[Long](n)
    val walks = (0 until n).flatMap { start =>
      (0 until WalksPerNode).map { _ =>
        val w = new Array[Int](WalkLen)
        var cur = start
        var i = 0
        while (i < WalkLen) {
          w(i) = cur
          counts(cur) += 1
          val nbrs = adj.getOrElse(cur, mutable.ArrayBuffer.empty)
          cur = if (nbrs.isEmpty) start else nbrs(rng.nextInt(nbrs.length))
          i += 1
        }
        w
      }
    }

    val sg = new SkipGram(n, dim, rng.split())
    sg.train(walks, counts, Epochs)

    def irOf(side: String, id: Long, ai: Int): Array[Double] = {
      val tNodes = tokenNodesOf.getOrElse((side, id, ai), Seq.empty)
      if (tNodes.isEmpty) empty.clone()
      else {
        val out = new Array[Double](dim)
        tNodes.foreach { tn =>
          val v = sg.vector(tn)
          var j = 0
          while (j < dim) { out(j) += v(j); j += 1 }
        }
        var j = 0
        while (j < dim) { out(j) /= tNodes.length; j += 1 }
        HashEmb.l2normalize(out)
        out
      }
    }

    IrSet(name, dim, ds.arity,
      tuples.map { case (side, id, attrs) =>
        (side, id) -> Array.tabulate(ds.arity)(ai => irOf(side, id, ai))
      }.toMap)
  }
}

object IrProviders {
  /** The four IR families of §III-B at a common dimensionality. */
  def all(dim: Int = 64): Seq[IrProvider] =
    Seq(new LsaIr(dim), new W2vIr(dim), new BertIr(dim), new EmbdiIr(dim))

  def byName(n: String, dim: Int = 64): IrProvider =
    all(dim).find(_.name.equalsIgnoreCase(n))
      .getOrElse(throw new IllegalArgumentException(s"unknown IR provider $n"))
}
