package repro.graph

import repro.{SparkSpec, TestGraphs}

/** The degeneracy-forward lists that the truss ordering and every level-1
  * neighborhood build walk.
  */
class ForwardListsSpec extends SparkSpec {

  /** Every edge sits exactly once, at its earlier endpoint in the degeneracy
    * order, with its canonical edge id; each list ascends by id and holds at
    * most δ entries.
    */
  private def checkLists(g: LocalGraph, name: String): Unit = {
    val d = Degeneracy.compute(g)
    val f = ForwardLists(g, d.pos)
    assert(f.n == g.n && f.off(0) == 0 && f.off(g.n) == g.m, name)
    val seen = new Array[Int](g.m)
    for (u <- 0 until g.n) {
      val list = f.off(u) until f.off(u + 1)
      assert(list.size <= d.delta, s"$name: vertex $u has ${list.size} > δ = ${d.delta} entries")
      for (p <- list) {
        val w = f.adj(p)
        assert(d.pos(u) < d.pos(w), s"$name: ($u, $w) is not at its earlier endpoint")
        assert(f.edge(p) == g.edgeId(u, w), s"$name: ($u, $w) carries edge ${f.edge(p)}")
        seen(f.edge(p)) += 1
        if (p > f.off(u)) assert(f.adj(p - 1) < w, s"$name: list of $u does not ascend")
      }
    }
    assert(seen.forall(_ == 1), s"$name: an edge is not listed exactly once")
  }

  test("random graphs: every edge once, at its earlier endpoint, ascending, at most δ per list") {
    for (seed <- 0 until 8) checkLists(GraphGen.randomGnp(80, 0.05 + 0.05 * seed, seed), s"gnp $seed")
    for (seed <- 0 until 3) checkLists(GraphGen.ba(400, 4, seed), s"ba $seed")
  }

  test("TestGraphs: every edge once, at its earlier endpoint, ascending, at most δ per list") {
    val graphs = Seq(
      "empty" -> LocalGraph.empty(5), "K8" -> LocalGraph.complete(8),
      "path" -> TestGraphs.path(10), "cycle" -> TestGraphs.cycle(9), "star" -> TestGraphs.star(12),
      "moonMoser" -> TestGraphs.moonMoser(4), "cocktailParty" -> TestGraphs.cocktailParty(5),
      "completeMinus" -> TestGraphs.completeMinus(9, Seq((0, 1), (2, 5), (3, 8))))
    for ((name, g) <- graphs) checkLists(g, name)
  }
}
