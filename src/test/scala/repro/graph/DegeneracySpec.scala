package repro.graph

import repro.{SparkSpec, TestGraphs}
import scala.util.Random

class DegeneracySpec extends SparkSpec {

  /** Brute-force degeneracy: max over orderings is hard, but δ is also the
    * max k such that the k-core is nonempty — computable by repeated peeling.
    */
  private def bruteDelta(g: LocalGraph): Int = {
    var best = 0
    var alive = (0 until g.n).toSet
    def degIn(v: Int, s: Set[Int]) = g.neighbors(v).count(s.contains)
    while (alive.nonEmpty) {
      val v = alive.minBy(degIn(_, alive))
      best = math.max(best, degIn(v, alive))
      alive -= v
    }
    best
  }

  test("empty graph has delta 0") {
    assert(Degeneracy.compute(LocalGraph.empty(4)).delta == 0)
  }

  test("complete graph K_n has delta n-1") {
    assert(Degeneracy.compute(LocalGraph.complete(6)).delta == 5)
  }

  test("path has delta 1") {
    assert(Degeneracy.compute(TestGraphs.path(10)).delta == 1)
  }

  test("cycle has delta 2") {
    assert(Degeneracy.compute(TestGraphs.cycle(8)).delta == 2)
  }

  test("star has delta 1") {
    assert(Degeneracy.compute(TestGraphs.star(9)).delta == 1)
  }

  test("order and pos are inverse permutations") {
    val g = GraphGen.randomGnp(40, 0.2, 11)
    val d = Degeneracy.compute(g)
    assert(d.order.toSeq.sorted == (0 until g.n))
    (0 until g.n).foreach(i => assert(d.pos(d.order(i)) == i))
  }

  test("ordering property: each vertex has at most delta later neighbors") {
    val g = GraphGen.randomGnp(60, 0.15, 12)
    val d = Degeneracy.compute(g)
    (0 until g.n).foreach { v =>
      val later = g.neighbors(v).count(w => d.pos(w) > d.pos(v))
      assert(later <= d.delta)
    }
  }

  test("coreness is bounded by delta and consistent with degrees") {
    val g = GraphGen.randomGnp(50, 0.2, 13)
    val d = Degeneracy.compute(g)
    assert(d.coreness.max == d.delta)
    (0 until g.n).foreach(v => assert(d.coreness(v) <= g.degree(v)))
  }

  /** Core numbers by definition: v's is the largest k whose k-core (what
    * is left after repeatedly deleting vertices of degree below k) holds v.
    */
  private def bruteCoreness(g: LocalGraph): Array[Int] = {
    val core = new Array[Int](g.n)
    var k = 1
    var alive = (0 until g.n).toSet
    while (alive.nonEmpty) {
      var low = alive.filter(v => g.neighbors(v).count(alive.contains) < k)
      while (low.nonEmpty) {
        alive --= low
        low = alive.filter(v => g.neighbors(v).count(alive.contains) < k)
      }
      alive.foreach(core(_) = k)
      k += 1
    }
    core
  }

  test("coreness never decreases along order and equals the k-core number") {
    for (seed <- 0 until 6) {
      val g = GraphGen.randomGnp(30 + 5 * seed, 0.1 + 0.05 * seed, seed + 300)
      val d = Degeneracy.compute(g)
      d.order.sliding(2).foreach {
        case Array(a, b) => assert(d.coreness(a) <= d.coreness(b), s"seed=$seed: vertices $a then $b")
        case _           =>
      }
      assert(d.coreness.sameElements(bruteCoreness(g)), s"seed=$seed")
    }
  }

  for (seed <- 0 until 15)
    test(s"delta matches brute-force peeling, seed=$seed") {
      val rng = new Random(seed)
      val g = GraphGen.randomGnp(8 + rng.nextInt(25), 0.05 + rng.nextDouble() * 0.4, seed + 100)
      assert(Degeneracy.compute(g).delta == bruteDelta(g))
    }

  test("planted clique dominates degeneracy") {
    val cfg = GraphGen.DatasetConfig("T", "t", 300, 2, 1, 20, 20, 0, 42)
    val g = GraphGen.generate(cfg)
    val d = Degeneracy.compute(g)
    assert(d.delta >= 19)
  }
}
