package repro.graph

import repro.{SparkSpec, TestGraphs}
import scala.util.Random

class LocalGraphSpec extends SparkSpec {

  test("empty graph") {
    val g = LocalGraph.empty(5)
    assert(g.n == 5 && g.m == 0)
    (0 until 5).foreach(v => assert(g.degree(v) == 0))
  }

  test("self-loops are dropped") {
    val g = LocalGraph.fromEdges(3, Seq((0, 0), (0, 1), (1, 1)))
    assert(g.m == 1)
    assert(g.hasEdge(0, 1) && !g.hasEdge(0, 0))
  }

  test("duplicate and reversed edges are merged") {
    val g = LocalGraph.fromEdges(3, Seq((0, 1), (1, 0), (0, 1), (2, 1), (1, 2)))
    assert(g.m == 2)
    assert(g.degree(1) == 2)
  }

  test("adjacency lists are sorted") {
    val g = LocalGraph.fromEdges(6, Seq((3, 1), (3, 5), (3, 0), (3, 4), (3, 2)))
    assert(g.neighbors(3).toSeq == Seq(0, 1, 2, 4, 5))
  }

  test("hasEdge is symmetric and matches the edge list") {
    val g = GraphGen.randomGnp(30, 0.2, 1)
    for (u <- 0 until g.n; v <- 0 until g.n) {
      assert(g.hasEdge(u, v) == g.hasEdge(v, u))
    }
    g.edgePairs.foreach { case (u, v) => assert(g.hasEdge(u, v)) }
  }

  test("edgeId round-trips for every canonical edge") {
    val g = GraphGen.randomGnp(40, 0.15, 2)
    for (e <- 0 until g.m) {
      assert(g.edgeId(g.eu(e), g.ev(e)) == e)
      assert(g.edgeId(g.ev(e), g.eu(e)) == e)
    }
    assert(g.edgeId(0, 0) == -1)
  }

  test("edgeId returns -1 for non-edges") {
    val g = TestGraphs.path(5)
    assert(g.edgeId(0, 2) == -1)
    assert(g.edgeId(0, 4) == -1)
    assert(g.edgeId(0, 1) >= 0)
  }

  test("degree sums to 2m") {
    val g = GraphGen.randomGnp(50, 0.1, 3)
    assert((0 until g.n).map(g.degree).sum == 2 * g.m)
  }

  test("complete graph has all edges") {
    val g = LocalGraph.complete(7)
    assert(g.m == 21)
    for (u <- 0 until 7; v <- (u + 1) until 7) assert(g.hasEdge(u, v))
  }

  test("canonical edges are sorted lexicographically") {
    val g = GraphGen.randomGnp(25, 0.3, 5)
    val pairs = g.edgePairs
    assert(pairs.sortBy(p => (p._1, p._2)).toSeq == pairs.toSeq)
    pairs.foreach { case (u, v) => assert(u < v) }
  }

  test("vertex out of range is rejected") {
    intercept[IllegalArgumentException] {
      LocalGraph.fromEdges(3, Seq((0, 3)))
    }
  }

  test("fromCanonical rejects edges that are not canonical and strictly increasing") {
    val bad = Seq(
      "reversed" -> (Array(0, 2), Array(1, 1)),
      "self-loop" -> (Array(0, 1), Array(1, 1)),
      "out of range" -> (Array(0, 1), Array(1, 3)),
      "negative" -> (Array(-1, 0), Array(1, 1)),
      "duplicate" -> (Array(0, 0), Array(1, 1)),
      "descending" -> (Array(0, 0), Array(2, 1)),
      "descending start" -> (Array(1, 0), Array(2, 2)),
      "unequal lengths" -> (Array(0, 1), Array(1)))
    for ((what, (eu, ev)) <- bad) withClue(what)(intercept[IllegalArgumentException](LocalGraph.fromCanonical(3, eu, ev)))
    val g = LocalGraph.fromCanonical(3, Array(0, 0, 1), Array(1, 2, 2))
    assert(g.m == 3 && g.neighbors(1).toSeq == Seq(0, 2))
  }

  /** Every adjacency slot p of every vertex v holds the canonical id of
    * {v, adj(p)}, and `edgeSlot` finds a slot of the same edge in the list
    * of the endpoint of smaller degree.
    */
  private def assertSlotEdges(g: LocalGraph): Unit = {
    assert(g.adjEdge.length == g.adj.length)
    for (v <- 0 until g.n; p <- g.offsets(v) until g.offsets(v + 1)) {
      val w = g.adj(p); val e = g.adjEdge(p)
      assert(g.eu(e) == math.min(v, w) && g.ev(e) == math.max(v, w), s"slot $p of $v")
      val s = g.edgeSlot(v, w)
      val owner = if (g.degree(v) <= g.degree(w)) v else w
      assert(s >= g.offsets(owner) && s < g.offsets(owner + 1) && g.adjEdge(s) == e)
    }
  }

  test("adjEdge holds the canonical edge id of every adjacency slot") {
    assertSlotEdges(LocalGraph.empty(5))
    assertSlotEdges(LocalGraph.complete(7))
    assertSlotEdges(GraphGen.randomGnp(40, 0.15, 2))
    assert(LocalGraph.empty(5).edgeSlot(1, 2) == -1)
    assert(LocalGraph.complete(7).edgeSlot(3, 3) == -1)
  }

  for (seed <- 0 until 20)
    test(s"property: construction invariants on random multigraph seed=$seed") {
      val rng = new Random(seed)
      val n = 1 + rng.nextInt(30)
      val m = rng.nextInt(120)
      val edges = List.fill(m)((rng.nextInt(n), rng.nextInt(n)))
      val g = LocalGraph.fromEdges(n, edges)
      val expected = edges.collect {
        case (a, b) if a != b => (math.min(a, b), math.max(a, b))
      }.toSet
      assert(g.m == expected.size)
      expected.foreach { case (u, v) => assert(g.hasEdge(u, v)) }
      assert((0 until g.n).map(g.degree).sum == 2 * g.m)
      assertSlotEdges(g)
    }
}
