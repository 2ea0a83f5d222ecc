package repro.mce

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, LocalGraph}

/** Differential tests on generated graphs shaped to reach the kernels'
  * word boundaries and restore paths, which hand-made inputs reach only one
  * at a time:
  *
  *  - near-cliques whose complement is paths and cycles over vertices spread
  *    across bits 64 and 128, so C spans three words and early termination
  *    walks complements across words;
  *  - hubs of degree above 128, so that X spans three or more words;
  *  - dense random blocks, whose level-1 edge branches hold consumed pairs
  *    inside C, so that a vertex kernel's subtree swaps in the full rows
  *    and its caller must restore its own;
  *  - two-level planted cliques, so that edge branching at d = 2 and 3
  *    consumes pairs inside C′.
  *
  * Every preset, plus HBBMC and HBBMC+ at d = 2 and 3 and EBBMC without
  * early termination, must return the plain Bron–Kerbosch reference's
  * cliques (`RefBK`) on the smaller graphs and RDegen's on the near-cliques,
  * which `RefBK` cannot finish. Each graph is the generator's output under a
  * fixed seed. GR keeps most of every graph, so the kernels, not GR, see its
  * structure.
  */
class DifferentialSpec extends SparkSpec {
  import DifferentialSpec._

  // Edge steps below level 1 with and without early termination, which
  // solves a clique-like C before any edge step runs.
  private val configs: Seq[(String, MceConfig)] = MceConfig.named ++ Seq(
    "HBBMC d=2" -> MceConfig.hbbmcDepth(2), "HBBMC d=3" -> MceConfig.hbbmcDepth(3),
    "HBBMC+ d=2" -> MceConfig.hbbmcP.copy(edgeDepth = 2), "HBBMC+ d=3" -> MceConfig.hbbmcP.copy(edgeDepth = 3),
    "EBBMC noET" -> MceConfig.ebbmcNoEt)

  private def check(name: String, g: LocalGraph, want: Vector[Vector[Int]],
                    skip: Set[String] = Set.empty): Unit = {
    val kept = Engine.prepare(g, MceConfig.rDegen).reduced.n
    assert(4 * kept >= 3 * g.n, s"$name: GR keeps only $kept of ${g.n} vertices")
    // Theorems 1 and 2 rest on |C| <= tau at level 1
    val prep = Engine.prepare(g, MceConfig.hbbmcPP)
    val maxC = TestGraphs.maxLevel1C(prep)
    assert(maxC <= prep.orderBound, s"$name: a level-1 C holds $maxC vertices, tau = ${prep.orderBound}")
    for ((cfgName, cfg) <- configs if !skip(cfgName)) {
      val (got, stats) = Engine.collectLocal(g, cfg)
      assert(got == want,
        s"$cfgName differs on $name: got ${got.size} cliques, want ${want.size}\n" +
          s"  extra: ${got.diff(want).take(3)}\n  missing: ${want.diff(got).take(3)}")
      assert(stats.cliques == want.size.toLong, s"$cfgName on $name")
    }
  }

  for (seed <- 0 until 2)
    test(s"near-clique with complement paths and cycles across words 1 and 2, seed=$seed") {
      val g = sample(nearClique, seed)
      assert(g.n > 128)
      // Edge branching below level 1 does not finish on a near-clique this
      // large: consumed pairs keep early termination from firing.
      check(s"near-clique-$seed", g, Engine.collectLocal(g, MceConfig.rDegen)._1,
        skip = Set("EBBMC", "HBBMC d=2", "HBBMC d=3", "HBBMC+ d=2", "HBBMC+ d=3", "EBBMC noET"))
    }

  for (seed <- 0 until 3)
    test(s"hubs of degree above 128 over a sparse backbone, seed=$seed") {
      val g = sample(hubs, seed)
      assert((0 until g.n).map(g.degree).max > 128)
      check(s"hubs-$seed", g, RefBK.enumerate(g))
    }

  for (seed <- 0 until 3)
    test(s"dense random block, seed=$seed") {
      val g = sample(denseBlock, seed)
      check(s"dense-block-$seed", g, RefBK.enumerate(g))
    }

  for (seed <- 0 until 4)
    test(s"two-level planted cliques, seed=$seed") {
      val g = sample(twoLevel, seed)
      check(s"two-level-$seed", g, RefBK.enumerate(g))
    }
}

object DifferentialSpec {

  private def sample[T](gen: Gen[T], seed: Int): T = gen.pureApply(Gen.Parameters.default, Seed(seed.toLong))

  /** `vs` in a random order. */
  private def shuffled(vs: Seq[Int]): Gen[Seq[Int]] =
    Gen.listOfN(vs.size, Gen.choose(0, Int.MaxValue)).map(keys => vs.zip(keys).sortBy(_._2).map(_._1))

  /** K_n, 130 ≤ n ≤ 140, minus a complement of 3 to 5 vertex-disjoint paths
    * and cycles of 2 to 6 vertices each. Their vertices are drawn from the
    * whole range, so most components cross bit 64 or bit 128 of a branch's
    * layout. Every vertex misses at most two others: GR removes nothing,
    * and each branch with an empty X is a 3-plex that early termination
    * solves by walking the complement.
    */
  val nearClique: Gen[LocalGraph] = for {
    n <- Gen.choose(130, 140)
    sizes <- Gen.choose(3, 5).flatMap(Gen.listOfN(_, Gen.choose(2, 6)))
    cycles <- Gen.listOfN(sizes.size, Gen.oneOf(false, true))
    picked <- Gen.pick(sizes.sum, 0 until n)
    order <- shuffled(picked.toSeq)
  } yield {
    val starts = sizes.scanLeft(0)(_ + _)
    val removed = sizes.indices.flatMap { k =>
      val part = order.slice(starts(k), starts(k + 1))
      val closing = if (cycles(k) && part.size >= 3) Seq((part.last, part.head)) else Nil
      part.zip(part.tail) ++ closing
    }.map { case (a, b) => (math.min(a, b), math.max(a, b)) }.toSet
    LocalGraph.fromEdges(n, for (u <- 0 until n; v <- u + 1 until n if !removed((u, v))) yield (u, v))
  }

  /** A Barabási–Albert backbone (3 edges per vertex, so no vertex leaves
    * the 3-core) and 2 or 3 pairwise adjacent hubs. The hubs share 130 to
    * 180 neighbours, which carry small cliques and a cycle, and each hub
    * has up to 40 neighbours of its own, so a hub's branch, and the branch
    * of an edge between hubs, hold more than 128 vertices.
    */
  val hubs: Gen[LocalGraph] = for {
    n <- Gen.choose(260, 340)
    bSeed <- Gen.long
    hubIds <- Gen.choose(2, 3).flatMap(Gen.pick(_, 0 until n)).map(_.toSeq)
    shared <- Gen.choose(130, 180).flatMap(Gen.pick(_, (0 until n).filterNot(hubIds.contains)))
    ring <- shuffled(shared.toSeq)
    own <- Gen.sequence[Seq[Seq[Int]], Seq[Int]](hubIds.map(_ =>
      Gen.choose(0, 40).flatMap(Gen.pick(_, 0 until n)).map(_.toSeq)))
    cliques <- Gen.listOfN(12, Gen.choose(3, 6).flatMap(Gen.pick(_, shared)).map(_.toSeq))
  } yield {
    val backbone = GraphGen.ba(n, 3, bSeed)
    val spokes = hubIds.zip(own).flatMap { case (h, ns) => (shared ++ ns ++ hubIds).map((h, _)) }
    val cycle = ring.zip(ring.tail :+ ring.head)
    val planted = cliques.flatMap(q => for (a <- q; b <- q if a < b) yield (a, b))
    LocalGraph.fromEdges(n, backbone.edgePairs.toSeq ++ spokes ++ cycle ++ planted)
  }

  /** G(n, p) with 55 ≤ n ≤ 65 and 0.5 ≤ p ≤ 0.6. The truss ordering
    * interleaves the pairs of its many overlapping cliques, so many
    * level-1 candidate sets hold a pair ranked below their own edge.
    */
  val denseBlock: Gen[LocalGraph] = for {
    n <- Gen.choose(55, 65)
    p <- Gen.choose(0.5, 0.6)
    coins <- Gen.listOfN(n * (n - 1) / 2, Gen.choose(0.0, 1.0))
  } yield {
    val pairs = for (a <- 0 until n; b <- a + 1 until n) yield (a, b)
    LocalGraph.fromEdges(n, pairs.zip(coins).collect { case (e, coin) if coin < p => e })
  }

  /** Two levels of planted cliques. Each of 2 or 3 inner cliques of k = 5
    * to 7 vertices has a random matching; every inner pair off the matching
    * is extended to an outer clique by k to k + 2 new vertices, and ids are
    * then shuffled. An outer clique is larger than its inner clique, so the
    * truss ordering peels the matching pairs (a, b), (i, j), … of an inner
    * clique first and its raised pairs last. In the branch of (a, b), the
    * edge step of (i, j) then finds a pair it consumes, the next matching
    * pair, inside its C′.
    */
  val twoLevel: Gen[LocalGraph] = for {
    sizes <- Gen.choose(2, 3).flatMap(Gen.listOfN(_, Gen.choose(5, 7)))
    orders <- Gen.sequence[Seq[Seq[Int]], Seq[Int]](sizes.map(k => shuffled(0 until k)))
    extra <- Gen.sequence[Seq[Seq[Int]], Seq[Int]](sizes.map(k => Gen.listOfN(k * (k - 1) / 2, Gen.choose(k, k + 2))))
    ids <- shuffled(0 until sizes.sum + extra.flatten.sum)
  } yield {
    val starts = sizes.scanLeft(0)(_ + _)
    val (matched, inner) = sizes.indices.map { q =>
      val o = orders(q).map(_ + starts(q))
      val matching = o.grouped(2).collect { case Seq(a, b) => (math.min(a, b), math.max(a, b)) }.toSet
      (matching, for (a <- starts(q) until starts(q + 1); b <- a + 1 until starts(q + 1)) yield (a, b))
    }.unzip
    var next = sizes.sum
    val outer = inner.flatten.zip(extra.flatten).filterNot { case (p, _) => matched.exists(_(p)) }.map {
      case ((a, b), x) => val q = Seq(a, b) ++ (next until next + x); next += x; q
    }
    val edges = inner.flatten ++ outer.flatMap(q => for (a <- q; b <- q if a < b) yield (a, b))
    val label = ids.take(next).sorted.zipWithIndex.toMap // the used ids, shuffled, as 0 until next
    LocalGraph.fromEdges(next, edges.map { case (a, b) => (label(ids(a)), label(ids(b))) })
  }
}
