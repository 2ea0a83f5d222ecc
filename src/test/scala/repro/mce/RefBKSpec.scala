package repro.mce

import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, LocalGraph}
import scala.util.Random

class RefBKSpec extends SparkSpec {

  test("empty graph: every vertex is a maximal 1-clique") {
    assert(RefBK.enumerate(LocalGraph.empty(4)) ==
      Vector(Vector(0), Vector(1), Vector(2), Vector(3)))
  }

  test("complete graph: one maximal clique") {
    assert(RefBK.enumerate(LocalGraph.complete(5)) == Vector((0 until 5).toVector))
  }

  test("single edge plus isolated vertex") {
    val g = TestGraphs.of(3, (0, 1))
    assert(RefBK.enumerate(g) == Vector(Vector(0, 1), Vector(2)))
  }

  test("path: maximal cliques are the edges") {
    val g = TestGraphs.path(5)
    assert(RefBK.enumerate(g) ==
      Vector(Vector(0, 1), Vector(1, 2), Vector(2, 3), Vector(3, 4)))
  }

  test("Moon–Moser graph has 3^(n/3) maximal cliques") {
    assert(RefBK.enumerate(TestGraphs.moonMoser(2)).size == 9)
    assert(RefBK.enumerate(TestGraphs.moonMoser(3)).size == 27)
  }

  test("two triangles sharing an edge") {
    val g = TestGraphs.of(4, (0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
    assert(RefBK.enumerate(g) == Vector(Vector(0, 1, 2), Vector(1, 2, 3)))
  }

  for (seed <- 0 until 25)
    test(s"matches subset-enumeration brute force, seed=$seed") {
      val rng = new Random(seed)
      val n = 2 + rng.nextInt(10)
      val g = GraphGen.randomGnp(n, 0.1 + rng.nextDouble() * 0.6, seed + 1000)
      assert(RefBK.enumerate(g) == RefBK.bruteForce(g))
    }

  test("results are distinct and genuinely maximal cliques") {
    val g = GraphGen.randomGnp(18, 0.45, 77)
    val cs = RefBK.enumerate(g)
    assert(cs.distinct == cs)
    cs.foreach { c =>
      c.combinations(2).foreach(p => assert(g.hasEdge(p(0), p(1))))
      val ext = (0 until g.n).filterNot(c.contains).filter(w => c.forall(g.hasEdge(_, w)))
      assert(ext.isEmpty)
    }
  }
}
