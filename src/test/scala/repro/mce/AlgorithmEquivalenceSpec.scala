package repro.mce

import repro.{SparkSpec, TestGraphs}
import repro.graph.{Degeneracy, GraphGen, LocalGraph}
import scala.util.Random

/** The heart of the correctness story: every production configuration —
  * HBBMC/EBBMC/VBBMC level-1 splits × inner variants × ET × orderings ×
  * edge depths — must produce exactly the clique set of the trusted plain
  * Bron–Kerbosch reference, on special graphs and on many random graphs.
  */
class AlgorithmEquivalenceSpec extends SparkSpec {

  private val configs: Seq[(String, MceConfig)] = Seq(
    "HBBMC++" -> MceConfig.hbbmcPP,
    "HBBMC+" -> MceConfig.hbbmcP,
    "RRef" -> MceConfig.rRef,
    "RDegen" -> MceConfig.rDegen,
    "RRcd" -> MceConfig.rRcd,
    "RFac" -> MceConfig.rFac,
    "Ref++" -> MceConfig.refPP,
    "Rcd++" -> MceConfig.rcdPP,
    "Fac++" -> MceConfig.facPP,
    "HBBMC d=2" -> MceConfig.hbbmcDepth(2),
    "HBBMC d=3" -> MceConfig.hbbmcDepth(3),
    // every kind of child of an edge step at level 2: each vertex variant,
    // with and without the degree scan
    "Ref d=2" -> MceConfig.hbbmcDepth(2).copy(inner = Kernels.Ref),
    "Rcd d=2" -> MceConfig.hbbmcDepth(2).copy(inner = Kernels.Rcd),
    "Fac d=2" -> MceConfig.hbbmcDepth(2).copy(inner = Kernels.Fac),
    "HBBMC d=2 noET" -> MceConfig.hbbmcDepth(2).copy(etT = 0),
    "HBBMC t=1" -> MceConfig.hbbmcT(1),
    "HBBMC t=2" -> MceConfig.hbbmcT(2),
    "VBBMC-dgn" -> MceConfig.vbbmcDgn,
    "HBBMC-dgn" -> MceConfig.hbbmcDgn,
    "HBBMC-mdg" -> MceConfig.hbbmcMdg,
    "EBBMC" -> MceConfig.ebbmc,
    "EBBMC noET" -> MceConfig.ebbmcNoEt,
  )

  private def check(name: String, g: LocalGraph): Unit = {
    val want = RefBK.enumerate(g)
    configs.foreach { case (cfgName, cfg) =>
      val (got, stats) = Engine.collectLocal(g, cfg)
      assert(got == want,
        s"$cfgName differs on $name: got ${got.size} cliques, want ${want.size}\n" +
          s"  extra: ${got.diff(want).take(3)}\n  missing: ${want.diff(got).take(3)}")
      assert(got.distinct == got, s"$cfgName emitted duplicates on $name")
      assert(stats.cliques == want.size.toLong)
      assert(stats.maxSize == (if (want.isEmpty) 0 else want.map(_.size).max))
    }
  }

  // ------------------------------------------------------- special graphs

  test("special: empty graph (singletons)") { check("empty", LocalGraph.empty(6)) }
  test("special: single vertex") { check("K1", LocalGraph.empty(1)) }
  test("special: single edge") { check("K2", TestGraphs.of(2, (0, 1))) }
  test("special: complete K8") { check("K8", LocalGraph.complete(8)) }
  test("special: path P9") { check("P9", TestGraphs.path(9)) }
  test("special: cycle C9") { check("C9", TestGraphs.cycle(9)) }
  test("special: star S10") { check("S10", TestGraphs.star(10)) }
  test("special: Moon–Moser 9 vertices (27 cliques)") { check("MM9", TestGraphs.moonMoser(3)) }
  test("special: Moon–Moser 12 vertices (81 cliques)") { check("MM12", TestGraphs.moonMoser(4)) }
  test("special: cocktail party (2-plex)") { check("CP5", TestGraphs.cocktailParty(5)) }
  test("special: two triangles sharing an edge") {
    check("bowtie", TestGraphs.of(4, (0, 1), (0, 2), (1, 2), (1, 3), (2, 3)))
  }
  test("special: clique with a pendant") {
    check("pendant", TestGraphs.of(6, (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)))
  }
  test("special: disconnected mix with isolated vertices") {
    check("mix", TestGraphs.of(9, (0, 1), (1, 2), (0, 2), (4, 5), (6, 7)))
  }
  test("special: complete bipartite K3,3") {
    check("K33", TestGraphs.of(6, (0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (1, 5), (2, 3), (2, 4), (2, 5)))
  }

  // -------------------------------------------------------- random graphs

  for (seed <- 0 until 18)
    test(s"random G(n,p) sparse, seed=$seed") {
      val rng = new Random(seed)
      val n = 5 + rng.nextInt(35)
      check(s"gnp-sparse-$seed", GraphGen.randomGnp(n, 0.08 + rng.nextDouble() * 0.15, seed))
    }

  for (seed <- 0 until 18)
    test(s"random G(n,p) dense, seed=$seed") {
      val rng = new Random(seed + 99)
      val n = 5 + rng.nextInt(22)
      check(s"gnp-dense-$seed", GraphGen.randomGnp(n, 0.35 + rng.nextDouble() * 0.35, seed + 99))
    }

  for (seed <- 0 until 8)
    test(s"random BA + planted cliques, seed=$seed") {
      val cfg = GraphGen.DatasetConfig("T", "t", 60, 2, 4, 4, 7, 0, seed + 7)
      check(s"social-$seed", GraphGen.generate(cfg))
    }

  for (seed <- 0 until 6)
    test(s"random overlapping planted cliques, seed=$seed") {
      val cfg = GraphGen.DatasetConfig("T", "t", 50, 1, 6, 4, 8, 12, seed + 31)
      check(s"overlap-$seed", GraphGen.generate(cfg))
    }

  // Level-1 rows of more than 128 bits: the only random input here whose
  // pooled candidate and exclusion sets span several words.
  test("random BA + planted cliques with two hubs of degree 150 (multi-word sets)") {
    val cfg = GraphGen.DatasetConfig("H", "h", 220, 2, 12, 4, 8, 0, 41, nHubs = 2, hubDeg = 150)
    val g = GraphGen.generate(cfg)
    assert((0 until g.n).map(g.degree).max > 128)
    check("hubs-41", g)
  }

  // Level-1 candidate sets of more than 64 vertices, which no other input
  // here reaches (C ≤ δ for vertex branches): K_{70,70} plus G(70, 0.05)
  // inside each side, δ > 64.
  test("complete bipartite K70,70 with sparse sides (multi-word candidate sets)") {
    val rng = new Random(3)
    val side = 70
    val edges = for (i <- 0 until 2 * side; j <- i + 1 until 2 * side
                     if (i < side) != (j < side) || rng.nextDouble() < 0.05) yield (i, j)
    val g = LocalGraph.fromEdges(2 * side, edges)
    assert(Degeneracy.compute(g).delta > 64)
    check("bipartite-70", g)
  }

  // Regression: deep edge-branching (d >= 2) once re-used candidate pairs
  // consumed at level 2 when handing off to the vertex phase (duplicate
  // cliques on dense graphs); caught on G(24, 0.77)-style instances.
  for (seed <- Seq(2341, 2342, 2400, 2500, 2600, 2700))
    test(s"regression: dense graph under deep edge branching, seed=$seed") {
      val rng = new Random(seed)
      val n = 20 + rng.nextInt(8)
      val g = GraphGen.randomGnp(n, 0.68 + rng.nextDouble() * 0.15, seed + 1000000)
      val want = RefBK.enumerate(g)
      for (d <- 2 to 4) {
        val (got, _) = Engine.collectLocal(g, MceConfig.hbbmcDepth(d))
        assert(got == want, s"d=$d differs")
      }
    }

  // --------------------------------------------- medium integration check

  test("medium graph: all configs agree pairwise (no reference)") {
    val cfg = GraphGen.DatasetConfig("T", "t", 400, 3, 25, 5, 12, 0, 271)
    val g = GraphGen.generate(cfg)
    val results = configs.map { case (name, c) => (name, Engine.collectLocal(g, c)._1) }
    val first = results.head
    results.tail.foreach { case (name, got) =>
      assert(got == first._2, s"$name differs from ${first._1} on medium graph")
    }
    // sanity: the planted cliques produce a non-trivial result
    assert(first._2.size > 100)
  }
}
