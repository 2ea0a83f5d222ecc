package repro.graph

import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** Deterministic synthetic graph generators.
  *
  * The paper evaluates on 16 real-world graphs (Table I) plus ER/BA random
  * graphs (Appendix D). The real graphs are not available offline, so the
  * bench suite substitutes scaled-down synthetic stand-ins: a Barabási–Albert
  * power-law backbone with planted (optionally overlapping) cliques, tuned
  * per dataset to echo each graph's edge density and its δ-vs-τ gap. See
  * DESIGN.md §3 for the substitution rationale.
  */
object GraphGen {

  /** Barabási–Albert preferential attachment: each new vertex attaches to
    * `mPer` existing vertices sampled proportionally to degree.
    */
  def ba(n: Int, mPer: Int, seed: Long): LocalGraph = {
    require(n > mPer && mPer >= 1)
    val rng = new Random(seed)
    val edges = new ArrayBuffer[(Int, Int)](n * mPer)
    // `targets` holds one entry per edge endpoint: sampling uniformly from
    // it is sampling proportionally to degree.
    val targets = new ArrayBuffer[Int](2 * n * mPer)
    // Seed with a small clique on the first mPer + 1 vertices.
    var u = 0
    while (u <= mPer) {
      var v = u + 1
      while (v <= mPer) {
        edges += ((u, v)); targets += u; targets += v
        v += 1
      }
      u += 1
    }
    var w = mPer + 1
    while (w < n) {
      val chosen = new java.util.HashSet[Integer]()
      while (chosen.size < mPer) chosen.add(targets(rng.nextInt(targets.length)))
      val it = chosen.iterator()
      while (it.hasNext) {
        val t = it.next().intValue()
        edges += ((w, t)); targets += w; targets += t
      }
      w += 1
    }
    LocalGraph.fromEdges(n, edges)
  }

  /** Configuration of one synthetic stand-in for a paper dataset.
    *
    * @param overlapWindow if > 0, each planted clique draws its vertices from
    *                      a random contiguous id window of this width, which
    *                      makes cliques overlap heavily (harder instances —
    *                      used for the paper's slow datasets DG and OR).
    * @param nPockets      number of dense-but-incomplete ER pockets. Real
    *                      graphs owe their large δ-vs-τ gap to such cores
    *                      (degree-dense, triangle-sparser than a clique);
    *                      perfect planted cliques alone give δ ≈ τ + 1.
    * @param pocketP       edge probability inside a pocket, one random draw
    *                      per pair; at exactly 1.0 a pocket is planted as a
    *                      clique and draws none, which shifts every later draw.
    */
  final case class DatasetConfig(
      name: String,
      fullName: String,
      n: Int,
      baDeg: Int,
      nCliques: Int,
      cliqueMin: Int,
      cliqueMax: Int,
      overlapWindow: Int,
      seed: Long,
      nPockets: Int = 0,
      pocketMin: Int = 0,
      pocketMax: Int = 0,
      pocketP: Double = 0.5,
      hubBias: Boolean = false,
      nHubs: Int = 0,
      hubDeg: Int = 0
  )

  /** BA backbone + planted cliques + dense ER pockets ("social-like").
    *
    * With `hubBias`, pocket and clique members are sampled proportionally to
    * current degree (and every planted edge feeds back into the sampling
    * pool), so dense regions accumulate around backbone hubs and overlap
    * through them — the structure that gives real social graphs their large
    * δ-vs-τ gap and their hub-neighborhood enumeration cost.
    */
  def generate(cfg: DatasetConfig): LocalGraph = {
    val rng = new Random(cfg.seed)
    val edges = new ArrayBuffer[(Int, Int)]()
    val targets = new ArrayBuffer[Int]()
    def addEdge(a: Int, b: Int): Unit = {
      edges += ((a, b))
      if (cfg.hubBias) { targets += a; targets += b }
    }
    // Joins each pair of `members` with probability p, in iteration order;
    // p = 1 (a clique) draws no random number.
    def plant(members: java.util.HashSet[Integer], p: Double): Unit = {
      val arr = new Array[Int](members.size)
      val it = members.iterator()
      var i = 0
      while (it.hasNext) { arr(i) = it.next().intValue(); i += 1 }
      var a = 0
      while (a < arr.length) {
        var b = a + 1
        while (b < arr.length) {
          if (p >= 1.0 || rng.nextDouble() < p) addEdge(arr(a), arr(b))
          b += 1
        }
        a += 1
      }
    }
    if (cfg.baDeg >= 1)
      ba(cfg.n, cfg.baDeg, cfg.seed + 1).edgePairs.foreach { case (a, b) => addEdge(a, b) }
    // Mega-hubs: a few vertices with very wide, mostly sparse neighborhoods
    // (vertex-oriented branching over such hubs is what makes δ-driven
    // algorithms expensive on graphs like digg; edge branches stay small).
    var h = 0
    while (h < cfg.nHubs) {
      val members = new java.util.HashSet[Integer]()
      while (members.size < cfg.hubDeg) members.add(1 + rng.nextInt(cfg.n - 1))
      val it = members.iterator()
      while (it.hasNext) {
        val t = it.next().intValue()
        if (t != h) addEdge(h, t)
      }
      h += 1
    }
    def sampleMember(): Int =
      if (cfg.hubBias && targets.nonEmpty && rng.nextDouble() < 0.8)
        targets(rng.nextInt(targets.length))
      else rng.nextInt(cfg.n)
    var pk = 0
    while (pk < cfg.nPockets) {
      val size = cfg.pocketMin + rng.nextInt(math.max(1, cfg.pocketMax - cfg.pocketMin + 1))
      val members = new java.util.HashSet[Integer]()
      while (members.size < size) members.add(sampleMember())
      plant(members, cfg.pocketP)
      pk += 1
    }
    var c = 0
    while (c < cfg.nCliques) {
      val size = cfg.cliqueMin + rng.nextInt(cfg.cliqueMax - cfg.cliqueMin + 1)
      val members = new java.util.HashSet[Integer]()
      if (cfg.overlapWindow > 0) {
        val w = math.max(cfg.overlapWindow, size + 1)
        val base = rng.nextInt(math.max(1, cfg.n - w))
        while (members.size < size) members.add(base + rng.nextInt(w))
      } else {
        while (members.size < size) members.add(sampleMember())
      }
      plant(members, 1.0)
      c += 1
    }
    LocalGraph.fromEdges(cfg.n, edges)
  }

  /** The 16 stand-ins for the paper's Table I datasets, at ~1/100 scale.
    * Parameters were tuned so that (a) relative densities echo the paper,
    * (b) DG and OR are the hardest instances (as in the paper), and
    * (c) the truss bound τ stays clearly below δ on most datasets.
    */
  val paperSuite: Seq[DatasetConfig] = Seq(
    DatasetConfig("NA", "nasasrb",   3500,  3, 250, 12, 16, 0,  101,  8, 40, 50, 0.55),
    DatasetConfig("FB", "fbwosn",    4000,  5, 250,  6, 12, 0,  102,  8, 50, 62, 0.60, hubBias = true),
    // WE and DB are the paper's δ ≈ τ outliers (a single giant clique
    // dominates both numbers), so they get no pockets.
    DatasetConfig("WE", "websk",     8000,  1,  40,  4, 30, 0,  103),
    DatasetConfig("WK", "wikitrust", 6000,  4, 350,  4, 14, 0,  104,  7, 45, 60, 0.60, hubBias = true),
    DatasetConfig("SH", "shipsec5",  5000,  3, 400,  8, 12, 0,  105,  8, 40, 52, 0.58),
    DatasetConfig("ST", "stanford",  6500,  5, 300,  4, 20, 0,  106,  5, 65, 80, 0.60, hubBias = true),
    DatasetConfig("DB", "dblp",      8000,  2, 800,  3, 24, 0,  107),
    DatasetConfig("DE", "dielfilter",3200, 12, 200, 10, 18, 0,  108,  8, 50, 60, 0.65),
    DatasetConfig("DG", "digg",      6000,  5, 500,  6, 20, 80, 109, 12, 90, 120, 0.62, hubBias = true),
    DatasetConfig("YO", "youtube",   9000,  2, 300,  3,  8, 0,  110,  6, 32, 40, 0.58),
    DatasetConfig("PO", "pokec",     7000,  8, 350,  4, 12, 0,  111,  8, 48, 60, 0.62, hubBias = true),
    DatasetConfig("SK", "skitter",   7500,  5, 450,  5, 16, 0,  112,  6, 60, 72, 0.60, hubBias = true),
    DatasetConfig("CN", "wikicn",    8500,  4, 400,  5, 14, 0,  113,  5, 56, 68, 0.62, hubBias = true),
    DatasetConfig("BA", "baidu",     9000,  5, 400,  4, 13, 0,  114,  6, 48, 60, 0.60, hubBias = true),
    DatasetConfig("OR", "orkut",     5500, 12, 600,  8, 22, 100, 115, 10, 85, 110, 0.62, hubBias = true),
    DatasetConfig("SO", "socfba",    9000,  5, 450,  5, 13, 0,  116,  7, 46, 56, 0.60, hubBias = true)
  )

  /** An extra-large DG-style graph, outside the suite: the distributed
    * table needs an instance whose enumeration time dwarfs Spark's fixed
    * job overhead (~0.5 s).
    */
  val xl: DatasetConfig = DatasetConfig(
    "XL", "digg-xl", 12000, 5, 800, 6, 20, 100, 990, 24, 100, 130, 0.62, hubBias = true)

  private val registry: Seq[DatasetConfig] = paperSuite :+ xl

  def byName(name: String): DatasetConfig =
    registry.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown dataset $name; known: ${registry.map(_.name).mkString(", ")}"))

  /** A small random graph for property tests: ER with edge prob p. */
  def randomGnp(n: Int, p: Double, seed: Long): LocalGraph = {
    val rng = new Random(seed)
    val edges = for {
      u <- 0 until n
      v <- (u + 1) until n
      if rng.nextDouble() < p
    } yield (u, v)
    LocalGraph.fromEdges(n, edges)
  }
}
