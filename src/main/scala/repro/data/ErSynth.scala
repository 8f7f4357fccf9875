package repro.data

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._
import repro.er.ErDataset
import repro.nn.Rng
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Synthetic ER benchmark generator — the offline stand-in for the paper's
  * Table II datasets (DeepMatcher suite + two private Peak AI sets).
  *
  * Each domain generates a universe of "real-world entities" with canonical
  * attribute values composed from word pools (pool indices collide across
  * entities, so non-duplicates naturally share tokens — hard negatives).
  * Table A holds one record per entity; table B holds perturbed duplicates
  * of a subset of A's entities plus distractor entities. Perturbations are
  * typos, token drops, abbreviations and missing values; noisy domains (the
  * paper's ‡ datasets) get heavier corruption and unstructured description
  * fields. Train/test splits are labeled pair sets at ~1:3 pos:neg with
  * sibling (token-sharing) hard negatives, mirroring the benchmark layout.
  *
  * Cardinalities / split sizes keep the paper's ratios but are capped for a
  * single-container run; see the table in EXPERIMENTS.md. Everything is
  * deterministic in (domain, seed).
  */
object ErSynth {

  final case class Noise(typo: Double, dropTok: Double, missing: Double, abbrev: Double)
  val CleanNoise: Noise = Noise(0.06, 0.04, 0.02, 0.04)
  val NoisyNoise: Noise = Noise(0.14, 0.12, 0.20, 0.08)

  final case class DomainSpec(
      name: String, arity: Int, cardA: Int, cardB: Int, nDup: Int,
      trainSize: Int, testSize: Int, clean: Boolean,
      canonical: (Int, Rng) => Array[String],
  ) {
    def noise: Noise = if (clean) CleanNoise else NoisyNoise
  }

  // ---------------------------------------------------------------- pools

  private val firstNames = Array("james", "mary", "robert", "patricia", "john", "jennifer",
    "michael", "linda", "david", "elizabeth", "william", "barbara", "richard", "susan",
    "joseph", "jessica", "thomas", "sarah", "charles", "karen", "aldo", "marco", "elena",
    "sofia", "lucas", "emma", "noah", "olivia", "liam", "ava")
  private val lastNames = Array("smith", "johnson", "williams", "brown", "jones", "garcia",
    "miller", "davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez", "wilson",
    "anderson", "thomas", "taylor", "moore", "jackson", "martin", "lee", "perez", "thompson",
    "white", "harris", "sanchez", "clark", "ramirez", "lewis", "robinson")
  private val cities = Array("new york", "los angeles", "chicago", "houston", "phoenix",
    "philadelphia", "san antonio", "san diego", "dallas", "austin", "boston", "seattle",
    "denver", "detroit", "memphis", "portland", "baltimore", "milwaukee", "atlanta", "miami")
  private val streets = Array("main st", "oak ave", "maple dr", "cedar ln", "park blvd",
    "lake rd", "hill st", "river ave", "sunset blvd", "broadway", "washington st",
    "lincoln ave", "jefferson rd", "madison st", "franklin ave", "highland dr")
  private val cuisines = Array("italian", "french", "chinese", "japanese", "mexican", "thai",
    "indian", "greek", "spanish", "korean", "vietnamese", "american", "steakhouse", "seafood")
  private val restaurantWords = Array("grill", "bistro", "kitchen", "house", "garden", "corner",
    "palace", "tavern", "cafe", "diner", "room", "table", "oven", "spoon", "fork", "plate")
  private val researchAreas = Array("database", "learning", "neural", "query", "entity",
    "resolution", "distributed", "parallel", "graph", "stream", "index", "transaction",
    "optimization", "semantic", "knowledge", "retrieval", "mining", "clustering", "deep",
    "probabilistic", "relational", "temporal", "spatial", "approximate", "scalable")
  private val venues = Array("sigmod", "vldb", "icde", "kdd", "www", "cikm", "edbt", "icdm",
    "acl", "emnlp", "nips", "icml", "aaai", "ijcai")
  private val authorsPoolSize = 200
  private val brands = Array("lorea", "maybel", "revlon", "nivea", "dove", "olay", "clinique",
    "lancome", "estee", "shiseido", "garnier", "neutro", "cerave", "aveeno", "pantene")
  private val cosmeticNouns = Array("lipstick", "mascara", "foundation", "serum", "cream",
    "lotion", "cleanser", "toner", "shampoo", "conditioner", "balm", "gel", "powder", "blush")
  private val cosmeticAdjs = Array("hydrating", "matte", "radiant", "volumizing", "gentle",
    "nourishing", "anti-aging", "brightening", "long-lasting", "waterproof", "natural",
    "intensive", "daily", "ultra", "soft")
  private val colors = Array("red", "crimson", "rose", "nude", "coral", "pink", "beige",
    "ivory", "black", "brown", "plum", "berry", "peach", "sand", "gold")
  private val softwareNouns = Array("studio", "suite", "manager", "editor", "server", "toolkit",
    "designer", "analyzer", "monitor", "backup", "security", "office", "photo", "video", "audio")
  private val softwareBrands = Array("microsort", "adobee", "corel", "symantex", "macafee",
    "intuit", "autodesc", "oracle", "ibm", "apple", "nero", "roxio", "avid", "sage", "kaspersky")
  private val musicAdjs = Array("blue", "midnight", "golden", "broken", "electric", "silent",
    "burning", "lonely", "wild", "sweet", "dark", "summer", "winter", "crazy", "endless")
  private val musicNouns = Array("love", "heart", "night", "dream", "road", "fire", "rain",
    "light", "sky", "river", "dance", "song", "tears", "shadow", "storm")
  private val artists = Array("the rolling tones", "coldpay", "radioheat", "metalica",
    "nirvana", "queen", "abba", "eagles", "fleetwood", "genesis", "oasis", "blur",
    "muse", "travis", "keane", "interpol", "wilco", "beck", "bjork", "moby")
  private val genres = Array("rock", "pop", "jazz", "blues", "folk", "metal", "indie",
    "electronic", "country", "soul")
  private val breweries = Array("stone", "sierra", "lagunitas", "founders", "bells", "deschutes",
    "dogfish", "ballast", "firestone", "oskar", "harpoon", "brooklyn", "anchor", "goose")
  private val beerStyles = Array("ipa", "stout", "porter", "lager", "pilsner", "saison",
    "wheat", "amber", "pale ale", "double ipa", "brown ale", "barleywine")
  private val beerWords = Array("hop", "haze", "velvet", "nitro", "imperial", "session",
    "citra", "mosaic", "galaxy", "tropic", "coastal", "mountain", "river", "old", "grand")
  private val sectors = Array("technology", "healthcare", "financials", "energy", "utilities",
    "materials", "industrials", "consumer", "telecom", "realestate")
  private val exchanges = Array("nyse", "nasdaq", "amex", "lse", "tsx")
  private val companyNouns = Array("systems", "holdings", "dynamics", "industries", "partners",
    "solutions", "networks", "therapeutics", "resources", "capital", "labs", "energy",
    "logistics", "brands", "group")
  private val companyRoots = Array("vertex", "apex", "nova", "quantum", "stellar", "pinnacle",
    "summit", "horizon", "atlas", "orion", "zenith", "meridian", "cascade", "aurora",
    "titan", "vanguard", "beacon", "crest", "delta", "echo")
  private val jobTitles = Array("manager", "director", "engineer", "analyst", "consultant",
    "specialist", "coordinator", "executive", "officer", "architect")
  private val countries = Array("usa", "uk", "canada", "germany", "france", "spain", "italy",
    "australia", "japan", "brazil")

  /** Deterministic pool pick with hash mixing — a plain `i % len` with
    * `i = e * k` has gcd structure (e.g. `e*3 mod 15` covers only 5 of 15
    * entries), which makes distinct entities collide into near-identical
    * tuples and floods nearest-neighbour pools with false duplicates.
    */
  private def pick(pool: Array[String], i: Int): String = {
    val h = (i.toLong * 0x9E3779B97F4A7C15L) >>> 40
    pool((h % pool.length).toInt)
  }

  // ------------------------------------------------------ canonical makers

  private def restaurants(e: Int, rng: Rng): Array[String] = Array(
    s"${pick(lastNames, e * 7)} ${pick(restaurantWords, e * 3)}",
    s"${100 + (e * 37) % 899} ${pick(streets, e * 5)}",
    pick(cities, e * 11),
    f"${200 + (e * 13) % 799}%03d-${1000 + (e * 91) % 8999}%04d",
    pick(cuisines, e * 17),
    s"${pick(cosmeticAdjs, e * 19)} ${pick(restaurantWords, e * 23 + 1)}",
  )

  private def citationTitle(e: Int, rng: Rng): String = {
    val n = 4 + (e % 4)
    (0 until n).map(k => pick(researchAreas, e * 5 + k * 7 + (e % 3))).mkString(" ")
  }

  private def citations(e: Int, rng: Rng): Array[String] = {
    val nAuth = 2 + e % 3
    val auth = (0 until nAuth)
      .map(k => s"${pick(firstNames, e * 3 + k * 11)} ${pick(lastNames, (e * 3 + k * 11) % authorsPoolSize)}")
      .mkString(", ")
    Array(citationTitle(e, rng), auth, pick(venues, e * 7), (1995 + (e * 13) % 26).toString)
  }

  private def cosmetics(e: Int, rng: Rng): Array[String] = Array(
    s"${pick(brands, e * 3)} ${pick(cosmeticAdjs, e * 5)} ${pick(cosmeticNouns, e * 7)} ${pick(colors, e * 11)}",
    pick(brands, e * 3),
    s"${pick(cosmeticAdjs, e * 5)} ${pick(cosmeticAdjs, e * 13 + 1)} ${pick(cosmeticNouns, e * 7)} for " +
      s"${pick(Array("dry", "oily", "sensitive", "normal", "combination"), e * 17)} skin " +
      s"${(10 + (e * 7) % 290)} ml",
  )

  private def software(e: Int, rng: Rng): Array[String] = Array(
    s"${pick(softwareBrands, e * 3)} ${pick(softwareNouns, e * 5)} " +
      s"${pick(Array("pro", "premium", "standard", "deluxe", "home", "ultimate"), e * 7)} " +
      s"${2000 + (e * 11) % 20} edition for " +
      s"${pick(Array("windows", "mac", "linux"), e * 13)} " +
      s"${pick(Array("1 user", "3 users", "5 users", "site license"), e * 17)}",
    pick(softwareBrands, e * 3),
    f"${(20 + (e * 37) % 680)}%d.99",
  )

  private def music(e: Int, rng: Rng): Array[String] = Array(
    s"${pick(musicAdjs, e * 3)} ${pick(musicNouns, e * 5)}",
    pick(artists, e * 7),
    s"${pick(musicAdjs, e * 11 + 1)} ${pick(musicNouns, e * 13 + 1)}",
    (1970 + (e * 17) % 50).toString,
    pick(genres, e * 19),
    f"${2 + (e * 7) % 6}%d:${(e * 23) % 60}%02d",
    s"(c) ${1970 + (e * 17) % 50} ${pick(softwareBrands, e * 29)} records",
    (1 + (e * 31) % 16).toString,
  )

  private def beer(e: Int, rng: Rng): Array[String] = Array(
    s"${pick(beerWords, e * 3)} ${pick(beerWords, e * 7 + 1)} ${pick(beerStyles, e * 5)}",
    s"${pick(breweries, e * 11)} brewing",
    pick(beerStyles, e * 5),
    f"${4.0 + (e * 13) % 80 / 10.0}%.1f",
  )

  private def stocks(e: Int, rng: Rng): Array[String] = {
    val root = pick(companyRoots, e * 3)
    Array(
      (root.take(3) + pick(companyNouns, e * 5).take(1)).toUpperCase,
      s"$root ${pick(companyNouns, e * 5)}",
      pick(exchanges, e * 7),
      pick(sectors, e * 11),
      s"${pick(sectors, e * 11)} ${pick(companyNouns, e * 13 + 2)}",
      pick(countries, e * 17),
      f"${5 + (e * 37) % 995}%d.${(e * 7) % 100}%02d",
      s"${1 + (e * 13) % 500}b",
    )
  }

  private def crm(e: Int, rng: Rng): Array[String] = {
    val fn = pick(firstNames, e * 3); val ln = pick(lastNames, e * 5)
    val comp = s"${pick(companyRoots, e * 7)} ${pick(companyNouns, e * 11)}"
    Array(
      fn, ln,
      s"$fn.$ln@${pick(companyRoots, e * 7)}.com",
      f"+1 ${200 + (e * 13) % 799}%03d ${1000 + (e * 91) % 8999}%04d",
      comp,
      s"${100 + (e * 37) % 899} ${pick(streets, e * 17)}",
      pick(cities, e * 19),
      pick(Array("ca", "ny", "tx", "fl", "wa", "il", "ma", "ga"), e * 23),
      f"${10000 + (e * 53) % 89999}%05d",
      pick(countries, e * 29),
      s"${pick(Array("senior", "junior", "lead", "principal", "chief"), e * 31)} ${pick(jobTitles, e * 37)}",
      s"met at ${pick(venues, e * 41)} ${2015 + e % 6}",
    )
  }

  /** The nine domains of Table II (scaled; see EXPERIMENTS.md for mapping). */
  val domains: Seq[DomainSpec] = Seq(
    DomainSpec("Rest.",  6,  533,  331,  240,  567, 189, clean = true,  restaurants),
    DomainSpec("Cit. 1", 4, 1500, 1300, 1050, 3000, 1000, clean = true, citations),
    DomainSpec("Cit. 2", 4, 1500, 4500, 1400, 4000, 1300, clean = true, citations),
    DomainSpec("Cosm.",  3, 1800, 1100,  450,  327,  81, clean = false, cosmetics),
    DomainSpec("Soft.",  3,  950, 1900,  900, 2500,  800, clean = false, software),
    DomainSpec("Music",  8, 1200, 4000, 1200,  321, 109, clean = false, music),
    DomainSpec("Beer",   4, 1400, 1000,  400,  268,  91, clean = false, beer),
    DomainSpec("Stocks", 8,  900, 3500,  800, 2000, 500, clean = false, stocks),
    DomainSpec("CRM",   12, 1200, 2000,  800,  440, 220, clean = true,  crm),
  )

  def spec(name: String): DomainSpec =
    domains.find(_.name == name).getOrElse(throw new IllegalArgumentException(s"unknown domain $name"))

  // ----------------------------------------------------------- perturbation

  private val abc = "abcdefghijklmnopqrstuvwxyz"

  private[data] def typo(word: String, rng: Rng): String = {
    if (word.length < 2) return word
    rng.nextInt(3) match {
      case 0 => // swap adjacent
        val i = rng.nextInt(word.length - 1)
        word.substring(0, i) + word.charAt(i + 1) + word.charAt(i) + word.substring(i + 2)
      case 1 => // drop char
        val i = rng.nextInt(word.length)
        word.substring(0, i) + word.substring(i + 1)
      case _ => // replace char
        val i = rng.nextInt(word.length)
        word.substring(0, i) + abc.charAt(rng.nextInt(26)) + word.substring(i + 1)
    }
  }

  private[data] def perturbValue(value: String, noise: Noise, rng: Rng): String = {
    if (rng.nextDouble() < noise.missing) return ""
    val toks = value.split(" ").toSeq.filter(_.nonEmpty)
    val out = toks.flatMap { t =>
      if (toks.length > 1 && rng.nextDouble() < noise.dropTok) None
      else if (t.length > 2 && rng.nextDouble() < noise.abbrev) Some(t.take(1) + ".")
      else if (rng.nextDouble() < noise.typo) Some(typo(t, rng))
      else Some(t)
    }
    if (out.isEmpty) value else out.mkString(" ")
  }

  private def perturbTuple(attrs: Array[String], noise: Noise, rng: Rng): Array[String] =
    attrs.map(v => perturbValue(v, noise, rng))

  // ------------------------------------------------------------- generation

  /** Build one domain's ErDataset; deterministic in (spec, seed). */
  def generate(spark: SparkSession, sp: DomainSpec, seed: Long = 42L): ErDataset = {
    val rng = new Rng(seed ^ sp.name.hashCode.toLong)

    // Entities 0..cardA-1 back table A; cardA.. back B-only distractors.
    val nDistract = sp.cardB - sp.nDup
    val nEntities = sp.cardA + nDistract

    val canon = Array.tabulate(nEntities)(e => sp.canonical(e, rng.split()))

    // Table A: entity e -> row id e, lightly perturbed even in clean domains.
    val lightNoise = Noise(sp.noise.typo * 0.3, sp.noise.dropTok * 0.3, 0.0, sp.noise.abbrev * 0.3)
    val aRows = (0 until sp.cardA).map { e =>
      e.toLong -> perturbTuple(canon(e), lightNoise, rng.split())
    }

    require(sp.nDup <= sp.cardA, s"${sp.name}: nDup ${sp.nDup} exceeds cardA ${sp.cardA}")
    // Table B: nDup perturbed duplicates of distinct A entities + distractors.
    val dupEntities = {
      val idx = Array.tabulate(sp.cardA)(identity)
      rng.shuffle(idx)
      idx.take(sp.nDup).toSeq
    }
    val bEntities = dupEntities ++ (sp.cardA until nEntities)
    val order     = Array.tabulate(bEntities.length)(identity)
    rng.shuffle(order)
    // Duplicates are a corruption *mixture*: a fraction are near-exact
    // copies (real feeds list the same product twice almost verbatim), the
    // rest carry the domain's full noise. Without the near-exact mode the
    // nearest pairs in latent space are one-token-different distinct
    // entities (e.g. color variants), not duplicates — which starves
    // Algorithm 1 of true seed positives far beyond what the paper's
    // †-domains exhibit.
    val bRows = order.toSeq.zipWithIndex.map { case (slot, bid) =>
      val e = bEntities(slot)
      val dupRng = rng.split()
      val noise =
        if (e < sp.cardA && dupRng.nextDouble() < 0.4) lightNoise
        else sp.noise
      (bid.toLong, e, perturbTuple(canon(e), noise, dupRng))
    }
    // Every B entity below cardA is one of dupEntities, so it has a match in A.
    val matchPairs = bRows.collect { case (bid, e, _) if e < sp.cardA => (e.toLong, bid) }

    // Labeled pairs: positives from matches; negatives = sibling (shares a
    // pool-collision token) + random non-matching pairs.
    val needed    = sp.trainSize + sp.testSize
    val nPos      = math.min(matchPairs.length, needed / 4)
    val posPairs  = {
      val idx = Array.tabulate(matchPairs.length)(identity)
      rng.shuffle(idx)
      idx.take(nPos).toSeq.map(matchPairs)
    }
    val matchSet = matchPairs.toSet
    val negPairs = mutable.LinkedHashSet.empty[(Long, Long)]
    val nNeg     = needed - nPos
    var guard = 0
    while (negPairs.size < nNeg && guard < nNeg * 50) {
      val ia = rng.nextInt(sp.cardA).toLong
      val ib = rng.nextInt(sp.cardB).toLong
      if (!matchSet.contains((ia, ib))) negPairs += ((ia, ib))
      guard += 1
    }

    val labeled = rng.split().let { r =>
      val all = posPairs.map(p => (p._1, p._2, 1)) ++ negPairs.toSeq.map(p => (p._1, p._2, 0))
      val idx = Array.tabulate(all.length)(identity)
      r.shuffle(idx)
      idx.toSeq.map(all)
    }
    val (trainPairs, testPairs) = labeled.splitAt(math.min(sp.trainSize, labeled.length - 1))

    // Local relations over the rows already built here: a collect reads them
    // back on the driver without a Spark job.
    import spark.implicits._
    val tableSchema = StructType(
      StructField("id", LongType, nullable = false) +:
        (0 until sp.arity).map(i => StructField(s"a$i", StringType, nullable = true)))
    def tableDf(rows: Seq[(Long, Array[String])]): DataFrame =
      spark.createDataFrame(rows.map { case (id, attrs) => Row.fromSeq(id +: attrs.toSeq) }.asJava, tableSchema)
    def pairsDf(ps: Seq[(Long, Long, Int)]): DataFrame = ps.toDF("idA", "idB", "label")

    ErDataset(sp.name, sp.clean, sp.arity,
      tableDf(aRows), tableDf(bRows.map(r => (r._1, r._3))),
      matchPairs.toDF("idA", "idB"), pairsDf(trainPairs), pairsDf(testPairs.take(sp.testSize)))
  }

  /** Small-scale variant for unit tests (cards ≈ /8, splits ≈ /8). */
  def generateTiny(spark: SparkSession, name: String, seed: Long = 42L): ErDataset = {
    val sp = spec(name)
    val tiny = sp.copy(
      cardA = math.max(30, sp.cardA / 8), cardB = math.max(30, sp.cardB / 8),
      nDup = math.max(15, sp.nDup / 8),
      trainSize = math.max(40, sp.trainSize / 8), testSize = math.max(16, sp.testSize / 8))
    generate(spark, tiny, seed)
  }

  private implicit class LetOps[A](private val a: A) extends AnyVal {
    def let[B](f: A => B): B = f(a)
  }
}
