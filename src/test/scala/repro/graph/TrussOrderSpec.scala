package repro.graph

import repro.{SparkSpec, TestGraphs}
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

class TrussOrderSpec extends SparkSpec {

  /** The truss ordering as computed before forward lists: the triangles are
    * listed by walking each forward neighbour's whole adjacency and
    * searching edge ids, O(Σ deg²), in the order (u, then a, then w, each
    * ascending id). The ranks depend on that order, through the order of
    * each edge's triangle records and so of the bucket pushes in the peel.
    */
  private def referenceRank(g: LocalGraph): Array[Int] = {
    val pos = Degeneracy.compute(g).pos
    val tris = ArrayBuffer.empty[(Int, Int, Int)]
    for (u <- 0 until g.n; a <- g.neighbors(u) if pos(a) > pos(u);
         w <- g.neighbors(a) if pos(w) > pos(a) && g.hasEdge(u, w))
      tris += ((g.edgeId(u, a), g.edgeId(u, w), g.edgeId(a, w)))
    val other = Array.fill(g.m)(ArrayBuffer.empty[(Int, Int)])
    for ((a, b, c) <- tris) { other(a) += ((b, c)); other(b) += ((a, c)); other(c) += ((a, b)) }
    val sup = Array.tabulate(g.m)(other(_).size)
    val maxSup = if (g.m == 0) 0 else sup.max
    val buckets = Array.fill(maxSup + 1)(ArrayBuffer.empty[Int])
    for (e <- 0 until g.m) buckets(sup(e)) += e
    val removed = new Array[Boolean](g.m)
    val rank = new Array[Int](g.m)
    var next = 0; var cur = 0
    while (next < g.m) {
      while (buckets(cur).isEmpty) cur += 1
      val e = buckets(cur).remove(buckets(cur).size - 1)
      if (!removed(e) && sup(e) == cur) {
        removed(e) = true; rank(e) = next; next += 1
        for ((e1, e2) <- other(e) if !removed(e1) && !removed(e2)) {
          sup(e1) -= 1; buckets(sup(e1)) += e1
          sup(e2) -= 1; buckets(sup(e2)) += e2
          cur = math.min(cur, math.min(sup(e1), sup(e2)))
        }
      }
    }
    rank
  }

  test("rank is pinned to the reference listing order") {
    val hubs = GraphGen.DatasetConfig("H", "hubs", 3000, 3, 80, 4, 12, 0, 31, 3, 25, 35, 0.6,
      nHubs = 4, hubDeg = 600)
    val graphs = Seq(GraphGen.generate(hubs), GraphGen.generate(GraphGen.byName("FB")),
      GraphGen.generate(GraphGen.byName("WE")), GraphGen.ba(800, 5, 3),
      // Tie-heavy: every edge of a clique starts with the same support.
      LocalGraph.complete(12), LocalGraph.complete(40),
      GraphGen.generate(GraphGen.DatasetConfig("P", "planted", 600, 2, 30, 12, 30, 60, 41))) ++
      (0 until 4).map(s => GraphGen.randomGnp(60, 0.3, s + 900))
    for (g <- graphs) {
      val r = EdgeOrders.truss(g)
      assert(r.rank.sameElements(referenceRank(g)), s"n=${g.n} m=${g.m}")
    }
  }

  test("the peel's memory does not grow with the triangle count") {
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val n = 300
    val g = LocalGraph.complete(n)
    EdgeOrders.truss(g) // warm-up
    val a0 = threads.getCurrentThreadAllocatedBytes
    EdgeOrders.truss(g)
    val alloc = threads.getCurrentThreadAllocatedBytes - a0
    // The triangle index holds 6 ints (24 bytes) per triangle; everything
    // else is O(m) or O(n).
    val triangles = n.toLong * (n - 1) * (n - 2) / 6
    val bound = 24L * triangles + 64L * g.m + (4L << 20)
    assert(alloc <= bound, s"allocated $alloc bytes, bound $bound")
  }

  test("degeneracy-lex and min-degree ranks equal a boxed sort of their keys on every paperSuite graph") {
    for (cfg <- GraphGen.paperSuite) {
      val g = GraphGen.generate(cfg)
      val deg = Degeneracy.compute(g)
      def boxedRanks(key: Int => Long): Array[Int] = {
        val boxed = Array.tabulate(g.m)(Integer.valueOf)
        java.util.Arrays.sort(boxed, (a: Integer, b: Integer) => java.lang.Long.compare(key(a), key(b)))
        val rank = new Array[Int](g.m)
        for (i <- boxed.indices) rank(boxed(i)) = i
        rank
      }
      val lex = boxedRanks { e =>
        val pu = deg.pos(g.eu(e)); val pv = deg.pos(g.ev(e))
        (math.min(pu, pv).toLong << 32) | math.max(pu, pv)
      }
      val mdg = boxedRanks(e => (math.min(g.degree(g.eu(e)), g.degree(g.ev(e))).toLong << 32) | e)
      assert(EdgeOrders.degeneracyLex(g, deg).sameElements(lex), cfg.name)
      assert(EdgeOrders.minDegree(g).sameElements(mdg), cfg.name)
    }
  }

  test("greedy peel: each edge has the minimum live support at its removal") {
    for (seed <- 0 until 6) {
      val g = GraphGen.randomGnp(25, 0.35, seed + 700)
      val r = EdgeOrders.truss(g)
      val live = Array.fill(g.m)(true)
      def support(e: Int): Int = TestGraphs.commonNeighbors(g, g.eu(e), g.ev(e)).count { w =>
        live(g.edgeId(g.eu(e), w)) && live(g.edgeId(g.ev(e), w))
      }
      var tau = 0
      for (e <- (0 until g.m).sortBy(r.rank(_))) {
        val min = (0 until g.m).filter(live(_)).map(support).min
        assert(support(e) == min, s"seed=$seed edge $e rank ${r.rank(e)}")
        tau = math.max(tau, min)
        live(e) = false
      }
      assert(tau == r.bound)
    }
  }

  test("empty and edgeless graphs") {
    assert(EdgeOrders.truss(LocalGraph.empty(5)).bound == 0)
    assert(EdgeOrders.truss(LocalGraph.empty(5)).rank.isEmpty)
  }

  test("triangle-free graph has tau 0") {
    assert(EdgeOrders.truss(TestGraphs.path(10)).bound == 0)
    assert(EdgeOrders.truss(TestGraphs.cycle(10)).bound == 0)
    assert(EdgeOrders.truss(TestGraphs.star(10)).bound == 0)
  }

  test("complete graph K_n has tau n-2") {
    // Removing edges one by one, the first removal sees n-2 common neighbors.
    assert(EdgeOrders.truss(LocalGraph.complete(6)).bound == 4)
    assert(EdgeOrders.truss(LocalGraph.complete(3)).bound == 1)
  }

  test("rank is a permutation of 0 until m") {
    val g = GraphGen.randomGnp(30, 0.3, 7)
    val r = EdgeOrders.truss(g)
    assert(r.rank.toSeq.sorted == (0 until g.m))
  }

  test("bound equals the generic achieved-bound evaluator") {
    for (seed <- 0 until 8) {
      val g = GraphGen.randomGnp(25, 0.35, seed)
      val r = EdgeOrders.truss(g)
      assert(TestGraphs.achievedBound(g, r.rank) == r.bound)
    }
  }

  for (seed <- 0 until 10)
    test(s"tau < delta (paper property), seed=$seed") {
      val rng = new Random(seed)
      val g = GraphGen.randomGnp(10 + rng.nextInt(30), 0.1 + rng.nextDouble() * 0.4, seed + 50)
      if (g.m > 0) {
        val tau = EdgeOrders.truss(g).bound
        val delta = Degeneracy.compute(g).delta
        assert(tau < delta, s"tau=$tau delta=$delta")
      }
    }

  test("truss ordering is at least as tight as degeneracy-lex and min-degree") {
    for (seed <- 0 until 6) {
      val g = GraphGen.randomGnp(30, 0.3, seed + 500)
      val truss = EdgeOrders.truss(g).bound
      val dgn = TestGraphs.achievedBound(g, EdgeOrders.degeneracyLex(g, Degeneracy.compute(g)))
      val mdg = TestGraphs.achievedBound(g, EdgeOrders.minDegree(g))
      assert(truss <= dgn, s"truss=$truss dgn=$dgn")
      assert(truss <= mdg, s"truss=$truss mdg=$mdg")
    }
  }

  test("alternative orderings are permutations too") {
    val g = GraphGen.randomGnp(30, 0.25, 9)
    val dgn = EdgeOrders.degeneracyLex(g, Degeneracy.compute(g))
    val mdg = EdgeOrders.minDegree(g)
    assert(dgn.toSeq.sorted == (0 until g.m))
    assert(mdg.toSeq.sorted == (0 until g.m))
  }

  test("min-degree ordering sorts by endpoint min degree") {
    val g = GraphGen.randomGnp(20, 0.3, 10)
    val r = EdgeOrders.minDegree(g)
    val key = (e: Int) => math.min(g.degree(g.eu(e)), g.degree(g.ev(e)))
    val byRank = (0 until g.m).sortBy(r(_))
    byRank.sliding(2).foreach {
      case Seq(a, b) => assert(key(a) <= key(b))
      case _         =>
    }
  }

  test("tau bounds the level-1 candidate size on the paper-suite generator") {
    val cfg = GraphGen.DatasetConfig("T", "t", 400, 3, 30, 5, 9, 0, 77)
    val g = GraphGen.generate(cfg)
    val r = EdgeOrders.truss(g)
    // By definition of achievedBound every level-1 branch has ≤ bound
    // candidates; spot-check directly.
    val rank = r.rank
    var maxC = 0
    for (e <- 0 until g.m) {
      val u = g.eu(e); val v = g.ev(e)
      val c = TestGraphs.commonNeighbors(g, u, v).count { w =>
        rank(g.edgeId(u, w)) > rank(e) && rank(g.edgeId(v, w)) > rank(e)
      }
      maxC = math.max(maxC, c)
    }
    assert(maxC == r.bound)
  }
}
