package repro.graph

import repro.SparkSpec

class GraphGenSpec extends SparkSpec {

  test("ba attaches every new vertex to mPer targets") {
    val g = GraphGen.ba(200, 3, 5)
    assert(g.n == 200)
    // seed clique of 4 vertices (6 edges) + 196 * 3 attachments, minus any
    // rare collisions through deduplication
    assert(g.m <= 6 + 196 * 3)
    assert(g.m >= 6 + 196 * 3 - 20)
    (4 until 200).foreach(v => assert(g.degree(v) >= 3))
  }

  test("ba exhibits skew (hubs exist)") {
    val g = GraphGen.ba(500, 2, 6)
    val degs = (0 until g.n).map(g.degree)
    assert(degs.max > 4 * (2 * g.m / g.n))
  }

  test("generate is deterministic") {
    val cfg = GraphGen.paperSuite.head
    val a = GraphGen.generate(cfg)
    val b = GraphGen.generate(cfg)
    assert(a.m == b.m && a.edgePairs.toSeq == b.edgePairs.toSeq)
  }

  test("planted cliques appear in the generated graph") {
    val cfg = GraphGen.DatasetConfig("T", "t", 500, 1, 5, 10, 10, 0, 9)
    val g = GraphGen.generate(cfg)
    // A 10-clique forces degeneracy >= 9.
    assert(Degeneracy.compute(g).delta >= 9)
  }

  test("overlap window keeps clique vertices close") {
    val cfg = GraphGen.DatasetConfig("T", "t", 5000, 0, 20, 6, 8, 50, 10)
    // baDeg=0 is not allowed by ba(); generate handles it by skipping backbone
    val g = GraphGen.generate(cfg)
    g.edgePairs.foreach { case (u, v) => assert(math.abs(u - v) < 64) }
  }

  test("paper suite has the 16 expected dataset codes") {
    assert(GraphGen.paperSuite.map(_.name) ==
      Seq("NA", "FB", "WE", "WK", "SH", "ST", "DB", "DE", "DG", "YO", "PO", "SK", "CN", "BA", "OR", "SO"))
    assert(GraphGen.byName("OR").fullName == "orkut")
    intercept[RuntimeException](GraphGen.byName("XX"))
  }

  test("byName resolves XL outside the suite and names the registry for an unknown name") {
    assert(GraphGen.byName("XL") == GraphGen.xl)
    assert(!GraphGen.paperSuite.contains(GraphGen.xl))
    val e = intercept[IllegalArgumentException](GraphGen.byName("XX"))
    assert(e.getMessage.endsWith("known: " + (GraphGen.paperSuite :+ GraphGen.xl).map(_.name).mkString(", ")))
  }

  test("randomGnp respects n") {
    val g = GraphGen.randomGnp(12, 0.5, 11)
    assert(g.n == 12)
    assert(g.m <= 66)
  }
}
