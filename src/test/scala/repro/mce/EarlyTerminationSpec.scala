package repro.mce

import repro.{SparkSpec, TestGraphs}
import repro.mce.EarlyTerminationSpec.{etCliques, etOnly}
import scala.util.Random

/** Direct tests of Algorithm 5 (2-plex) / Algorithm 8 (3-plex): solve a
  * whole t-plex graph as one kernel branch with C = V and X = ∅, which the
  * prologue's t-plex exit must hand to early termination (`Solver.terminate`)
  * without branching, and compare with the trusted plain-BK reference.
  */
class EarlyTerminationSpec extends SparkSpec {

  test("clique (1-plex): single maximal clique") {
    val g = repro.graph.LocalGraph.complete(7)
    assert(etCliques(g) == Vector((0 until 7).toVector))
  }

  test("cocktail-party 2-plex has 2^k maximal cliques") {
    for (k <- 1 to 6) {
      val g = TestGraphs.cocktailParty(k)
      val got = etCliques(g)
      assert(got.size == (1 << k))
      assert(got == RefBK.enumerate(g))
    }
  }

  test("paper Figure 3 example: K6 minus {(v3,v5),(v4,v6)} has 4 maximal cliques") {
    // 1-based in the paper; 0-based here: remove (2,4) and (3,5).
    val g = TestGraphs.completeMinus(6, Seq((2, 4), (3, 5)))
    val got = etCliques(g)
    assert(got == Vector(
      Vector(0, 1, 2, 3), Vector(0, 1, 2, 5), Vector(0, 1, 3, 4), Vector(0, 1, 4, 5)))
  }

  test("paper Figure 4 example: complement = path v1v2v3 + triangle v4v5v6") {
    // 0-based: complement edges (0,1),(1,2) form the path; (3,4),(4,5),(5,3)
    // the cycle. Expect 6 maximal cliques.
    val g = TestGraphs.completeMinus(6, Seq((0, 1), (1, 2), (3, 4), (4, 5), (5, 3)))
    val got = etCliques(g)
    assert(got == Vector(
      Vector(0, 2, 3), Vector(0, 2, 4), Vector(0, 2, 5),
      Vector(1, 3), Vector(1, 4), Vector(1, 5)))
  }

  test("3-plex with a long complement path") {
    val g = TestGraphs.completeMinus(9, (0 until 8).map(i => (i, i + 1)))
    assert(etCliques(g) == RefBK.enumerate(g))
  }

  test("3-plex with a long complement cycle") {
    val g = TestGraphs.completeMinus(9, (0 until 9).map(i => (i, (i + 1) % 9)))
    assert(etCliques(g) == RefBK.enumerate(g))
  }

  for (seed <- 0 until 20)
    test(s"random 3-plex matches plain BK, seed=$seed") {
      val rng = new Random(seed)
      val n = 4 + rng.nextInt(10)
      // Random complement with max degree <= 2: random subset of a random
      // permutation cycle decomposition — build paths/cycles over a shuffled
      // vertex sequence.
      val perm = rng.shuffle((0 until n).toList)
      val removed = scala.collection.mutable.ArrayBuffer[(Int, Int)]()
      var i = 0
      while (i < n - 1) {
        val segLen = 1 + rng.nextInt(4)
        val end = math.min(n - 1, i + segLen)
        for (j <- i until end) removed += ((perm(j), perm(j + 1)))
        // close some segments into cycles
        if (end - i >= 2 && rng.nextBoolean()) removed += ((perm(end), perm(i)))
        i = end + 1
      }
      val g = TestGraphs.completeMinus(n, removed.toSeq)
      // only run when it is a genuine 3-plex
      val isPlex = (0 until n).forall(v => g.degree(v) >= n - 3)
      if (isPlex) assert(etCliques(g) == RefBK.enumerate(g))
    }

  test("empty candidate set emits the bare prefix") {
    val g = repro.graph.LocalGraph.complete(3)
    val (bg, _) = TestGraphs.asBranch(g)
    val sink = new CollectSink
    val counters = new Counters
    Kernels.solve(bg, new Array[Long](bg.words), new Array[Long](bg.words), Array(41, 42), 2,
      etOnly, counters, sink)
    assert(sink.cliques.map(_.toSeq) == Seq(Seq(41, 42)))
    assert(counters.calls == 1 && counters.etApplied == 0)
  }

  test("multi-word complement: K142 minus paths and cycles across word boundaries") {
    // Complement parts: a 6-vertex path across bit 64, a triangle across bit
    // 128, the 4-cycle 0-70-140-5, a 7-cycle over three words and the single
    // edge (40, 141); 5 * 3 * 2 * 7 * 2 = 420 maximal cliques.
    def chain(vs: Int*): Seq[(Int, Int)] = vs.zip(vs.tail)
    val removed = chain(60, 66, 63, 64, 61, 67) ++ chain(127, 128, 129, 127) ++
      chain(0, 70, 140, 5, 0) ++ chain(10, 75, 131, 20, 85, 136, 30, 10) ++ Seq((40, 141))
    val g = TestGraphs.completeMinus(142, removed)
    val want = Engine.collectLocal(g, MceConfig.rDegen)._1
    assert(want.size == 420)
    assert(etCliques(g) == want)
    // EBBMC is left out: branching on edges all the way down does not
    // finish within a minute on a near-clique of this size
    for ((name, cfg) <- MceConfig.named if name != "EBBMC")
      assert(Engine.collectLocal(g, cfg)._1 == want, name)
  }
}

object EarlyTerminationSpec {

  private val etOnly = Kernels.KernelConfig(Kernels.Pivot, 3, 0)

  /** Maximal cliques of `g`, solved as one kernel branch that early
    * termination finishes alone: one call, one ET hit.
    */
  def etCliques(g: repro.graph.LocalGraph): Vector[Vector[Int]] = {
    val (bg, c) = TestGraphs.asBranch(g)
    val sink = new CollectSink
    val counters = new Counters
    Kernels.solve(bg, c, new Array[Long](bg.words), Array.emptyIntArray, 2, etOnly, counters, sink)
    assert(counters.calls == 1 && counters.etApplied == 1,
      s"calls ${counters.calls}, ET hits ${counters.etApplied}: not solved by early termination alone")
    RefBK.canon(sink.cliques)
  }
}
