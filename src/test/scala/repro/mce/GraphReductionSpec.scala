package repro.mce

import repro.{SparkSpec, TestGraphs}
import repro.graph.{Degeneracy, GraphGen, LocalGraph}
import scala.util.Random

class GraphReductionSpec extends SparkSpec {

  private def run(g: LocalGraph): (Vector[Vector[Int]], GraphReduction.Result) = {
    val sink = new CollectSink
    val res = GraphReduction.reduce(g, sink)
    (RefBK.canon(sink.cliques), res)
  }

  test("path collapses entirely with its edges emitted") {
    val g = TestGraphs.path(6)
    val (direct, res) = run(g)
    assert(res.reduced.n == 0)
    assert(direct == RefBK.enumerate(g))
  }

  test("isolated vertices are emitted as singletons") {
    val g = LocalGraph.empty(3)
    val (direct, res) = run(g)
    assert(direct == Vector(Vector(0), Vector(1), Vector(2)))
    assert(res.reduced.n == 0)
  }

  test("pendant attached to a triangle is emitted, triangle survives check") {
    // 0-1-2 triangle, 3 pendant on 0: GR removes 3 (emitting {0,3}) and then
    // the triangle itself (degree 2) directly.
    val g = TestGraphs.of(4, (0, 1), (0, 2), (1, 2), (0, 3))
    val (direct, res) = run(g)
    assert(direct == RefBK.enumerate(g))
    assert(res.reduced.n == 0)
  }

  test("dense core survives reduction") {
    val g = LocalGraph.complete(6)
    val (direct, res) = run(g)
    assert(direct.isEmpty)
    assert(res.reduced.n == 6 && res.reduced.m == 15)
    assert(res.reduced.n == g.n)
  }

  test("pendant chain into a clique") {
    // K5 on 0..4 plus chain 4-5-6-7
    val edges = (for (u <- 0 to 4; v <- (u + 1) to 4) yield (u, v)) ++
      Seq((4, 5), (5, 6), (6, 7))
    val g = TestGraphs.of(8, edges: _*)
    val (direct, res) = run(g)
    assert(direct == Vector(Vector(4, 5), Vector(5, 6), Vector(6, 7)))
    assert(res.reduced.n == 5)
    assert(res.oldId.toSeq == Seq(0, 1, 2, 3, 4))
  }

  test("two pendants on the same vertex both emit") {
    val g = TestGraphs.of(3, (0, 1), (0, 2))
    val (direct, _) = run(g)
    assert(direct == Vector(Vector(0, 1), Vector(0, 2)))
  }

  test("isolated edge emits once, no spurious singleton") {
    val g = TestGraphs.of(2, (0, 1))
    val (direct, _) = run(g)
    assert(direct == Vector(Vector(0, 1)))
  }

  test("triangle with all degrees 2 emits once") {
    val g = TestGraphs.cycle(3)
    val (direct, _) = run(g)
    assert(direct == Vector(Vector(0, 1, 2)))
  }

  test("square (C4) emits its four edges") {
    val g = TestGraphs.cycle(4)
    val (direct, _) = run(g)
    assert(direct == RefBK.enumerate(g))
  }

  private def randomGraph(seed: Int): LocalGraph = {
    val rng = new Random(seed)
    val n = 8 + rng.nextInt(30)
    GraphGen.randomGnp(n, 0.05 + rng.nextDouble() * 0.2, seed + 400)
  }

  /** The 3-core's vertices: repeatedly delete any vertex with fewer than 3
    * live neighbours.
    */
  private def threeCore(g: LocalGraph): Seq[Int] = {
    val live = Array.fill(g.n)(true)
    var changed = true
    while (changed) {
      changed = false
      for (v <- 0 until g.n if live(v) && g.neighbors(v).count(live) < 3) {
        live(v) = false; changed = true
      }
    }
    (0 until g.n).filter(live)
  }

  for (seed <- 0 until 20)
    test(s"GR emissions + reduced-graph cliques = all maximal cliques, seed=$seed") {
      val g = randomGraph(seed)
      val (direct, res) = run(g)
      // Enumerate the reduced graph with the reference and translate back;
      // small (≤2) cliques must be re-checked against the original graph.
      val rest = RefBK.enumerate(res.reduced).map(_.map(res.oldId)).filter { c =>
        if (c.size == 1) g.degree(c.head) == 0
        else if (c.size == 2) TestGraphs.commonNeighbors(g, c(0), c(1)).isEmpty
        else true
      }
      val all = (direct ++ rest.map(_.sorted.toVector)).sortBy(_.mkString(","))
      assert(all == RefBK.enumerate(g))
      assert(all.distinct == all)
    }

  test("reduced graph has minimum degree >= 3") {
    val g = GraphGen.randomGnp(60, 0.12, 999)
    val (_, res) = run(g)
    (0 until res.reduced.n).foreach(v => assert(res.reduced.degree(v) >= 3))
  }

  /** `closed` holds, for each reduced edge, whether some removed vertex of
    * `g` is adjacent to both of its endpoints.
    */
  private def assertClosedEdges(g: LocalGraph, res: GraphReduction.Result, clue: String): Unit = {
    val r = res.reduced
    val kept = res.oldId.toSet
    assert(res.closed.length == r.m, clue)
    for (e <- 0 until r.m) {
      val removedCommon = TestGraphs.commonNeighbors(g, res.oldId(r.eu(e)), res.oldId(r.ev(e)))
        .exists(!kept(_))
      assert(res.closed(e) == removedCommon, s"$clue edge $e")
    }
  }

  test("closed marks exactly the reduced edges with a removed common neighbour") {
    for (seed <- 0 until 20) {
      val g = randomGraph(seed)
      assertClosedEdges(g, run(g)._2, s"seed=$seed")
    }
    for (name <- Seq("WE", "DB", "YO")) {
      val g = GraphGen.generate(GraphGen.byName(name))
      val res = run(g)._2
      assert(res.closed.contains(true), name)
      assertClosedEdges(g, res, name)
    }
  }

  test("GR keeps exactly the 3-core") {
    for (seed <- 0 until 20) {
      val g = randomGraph(seed)
      assert(run(g)._2.oldId.toSeq == threeCore(g), s"seed=$seed")
    }
    // The suite stand-ins on which GR removes vertices.
    for (name <- Seq("WE", "DB", "YO")) {
      val g = GraphGen.generate(GraphGen.byName(name))
      val res = run(g)._2
      assert(res.reduced.n < g.n, name)
      assert(res.oldId.toSeq == threeCore(g), name)
    }
  }

  test("GR's degeneracy is the peel of the reduced graph") {
    // The seed-0 suite graphs that GR reduces, random graphs and one that GR
    // leaves whole.
    val graphs = Seq("WE", "DB", "YO").map(name => name -> GraphGen.generate(GraphGen.byName(name))) ++
      (0 until 20).map(seed => s"seed=$seed" -> randomGraph(seed)) :+ ("K6" -> LocalGraph.complete(6))
    for ((name, g) <- graphs) {
      val res = run(g)._2
      val peel = Degeneracy.compute(res.reduced)
      assert(res.degeneracy.pos.toSeq == peel.pos.toSeq, name)
      assert(res.degeneracy.delta == peel.delta, name)
    }
  }

  test("GR's direct rebuild equals fromEdges over the same kept edges") {
    // The seed-0 suite graphs that GR reduces, and random graphs.
    val graphs = Seq("WE", "DB", "YO").map(name => name -> GraphGen.generate(GraphGen.byName(name))) ++
      (0 until 20).map(seed => s"seed=$seed" -> randomGraph(seed))
    for ((name, g) <- graphs) {
      val res = run(g)._2
      val oldId = threeCore(g).toArray
      val newId = Array.fill(g.n)(-1)
      for ((v, i) <- oldId.zipWithIndex) newId(v) = i
      val kept = (0 until g.m).filter(e => newId(g.eu(e)) >= 0 && newId(g.ev(e)) >= 0)
      val expected = LocalGraph.fromEdges(oldId.length, kept.map(e => (newId(g.eu(e)), newId(g.ev(e)))))
      // a kept edge is closed iff a removed vertex is adjacent to both ends
      val closed = kept.map(e => TestGraphs.commonNeighbors(g, g.eu(e), g.ev(e)).exists(newId(_) < 0))
      val r = res.reduced
      assert(res.oldId.toSeq == oldId.toSeq, name)
      assert(r.n == expected.n, name)
      assert(r.offsets.toSeq == expected.offsets.toSeq, name)
      assert(r.adj.toSeq == expected.adj.toSeq, name)
      assert(r.adjEdge.toSeq == expected.adjEdge.toSeq, name)
      assert(r.eu.toSeq == expected.eu.toSeq && r.ev.toSeq == expected.ev.toSeq, name)
      assert(res.closed.toSeq == closed, name)
    }
  }
}
