package repro.mce

import repro.SparkSpec
import repro.graph.{Degeneracy, ForwardLists, LocalGraph}
import scala.util.Random

/** `Workspace.neighborhood`, the one builder of level-1 neighborhood
  * adjacency, which walks the degeneracy-forward lists of the layout,
  * against a brute-force reference built from the edge list.
  */
class NeighborhoodSpec extends SparkSpec {

  /** G(n, 0.05) plus `hubs` vertices adjacent to almost everything, so that
    * a hub's degree exceeds 8× a typical neighborhood: the case in which a
    * scan of whole adjacency lists would cost far more than the
    * neighborhood itself.
    */
  private def hubGraph(rng: Random, n: Int, hubs: Int): LocalGraph = {
    val edges = for {
      a <- 0 until n; b <- a + 1 until n
      if (if (a < hubs) rng.nextDouble() < 0.95 else rng.nextDouble() < 0.05)
    } yield (a, b)
    LocalGraph.fromEdges(n, edges)
  }

  private def workspaceFor(g: LocalGraph, maxDegree: Int): Workspace =
    new Workspace(ForwardLists(g, Degeneracy.compute(g).pos), maxDegree)

  private def workspaceFor(g: LocalGraph): Workspace =
    workspaceFor(g, (0 until g.n).map(g.degree).max)

  /** The expected `hFlat` prefix, and the rank of every adjacent pair. */
  private def reference(g: LocalGraph, ids: Array[Int], nLoc: Int, rowsEnd: Int, words: Int,
                        rank: Array[Int]): (Array[Long], Map[(Int, Int), Int]) = {
    val edgeOf = g.edgePairs.zipWithIndex.toMap
    val rows = new Array[Long](nLoc * words)
    val ranks = for {
      i <- 0 until nLoc; q <- 0 until nLoc
      if i != q && math.min(i, q) < rowsEnd
      e <- edgeOf.get((math.min(ids(i), ids(q)), math.max(ids(i), ids(q))))
    } yield { Bits.setRow(rows, i * words, q); (i, q) -> rank(e) }
    (rows, ranks.toMap)
  }

  /** Build the neighborhood of `u` in a shuffled layout and compare it with
    * the reference. Returns whether the layout holds a hub of degree above
    * 8·nLoc.
    */
  private def check(g: LocalGraph, ws: Workspace, rng: Random, u: Int, withRanks: Boolean,
                    fullRows: Boolean): Boolean = {
    val ids = rng.shuffle(g.neighbors(u).toSeq).toArray
    val nLoc = ids.length
    val words = Bits.words(nLoc)
    val rowsEnd = if (fullRows) nLoc else rng.nextInt(nLoc)
    val rank = rng.shuffle(Vector.range(0, g.m)).toArray
    val ranks = ws.neighborhood(ids, nLoc, rowsEnd, words, if (withRanks) rank else null)
    val (want, wantRanks) = reference(g, ids, nLoc, rowsEnd, words, rank)
    val clue = s"u=$u nLoc=$nLoc rowsEnd=$rowsEnd"
    assert(ws.hFlat.take(nLoc * words).sameElements(want), clue)
    for (i <- rowsEnd until nLoc; q <- rowsEnd until nLoc)
      assert(!Bits.getRow(ws.hFlat, i * words, q), s"$clue: cell ($i, $q) past rowsEnd")
    assert(ids.indices.forall(i => ws.markLocal(ids(i)) == i), clue)
    if (withRanks) {
      // one stored rank per adjacent pair, at the indexes 0 until #pairs
      val stored = wantRanks.keys.collect { case (i, q) if q < i => ranks.index(i, q) }
      assert(stored.toSeq.sorted == (0 until wantRanks.size / 2), clue)
      wantRanks.foreach { case ((i, q), r) => assert(ranks(i, q) == r, s"$clue ($i, $q)") }
    } else assert(ranks == null, clue)
    ids.exists(g.degree(_) > 8 * nLoc)
  }

  test("ranks, every row: matches the reference, with a hub in the layout") {
    var hubLayouts = 0
    for (seed <- 0 until 6) {
      val rng = new Random(seed)
      val g = hubGraph(rng, 300, 3)
      val ws = workspaceFor(g)
      for (u <- 3 until 300 by 23 if g.degree(u) > 0)
        if (check(g, ws, rng, u, withRanks = true, fullRows = true)) hubLayouts += 1
    }
    assert(hubLayouts > 0, "no layout held a hub of degree above 8·nLoc")
  }

  test("no ranks, a row prefix: matches the reference, later rows hold no pair among themselves") {
    var hubLayouts = 0
    for (seed <- 0 until 6) {
      val rng = new Random(100 + seed)
      val g = hubGraph(rng, 300, 3)
      val ws = workspaceFor(g)
      for (u <- 3 until 300 by 17 if g.degree(u) > 0)
        if (check(g, ws, rng, u, withRanks = false, fullRows = false)) hubLayouts += 1
    }
    assert(hubLayouts > 0, "no layout held a hub of degree above 8·nLoc")
  }

  test("a smaller neighborhood after a larger one in the same workspace has no stale bits") {
    val rng = new Random(7)
    val g = hubGraph(rng, 300, 3)
    val ws = workspaceFor(g)
    val bySize = (3 until 300).filter(g.degree(_) > 0).sortBy(g.degree)
    // a hub's full neighborhood, then small ones in both layouts
    check(g, ws, rng, 0, withRanks = true, fullRows = true)
    check(g, ws, rng, bySize.head, withRanks = true, fullRows = true)
    check(g, ws, rng, 1, withRanks = false, fullRows = true)
    check(g, ws, rng, bySize(1), withRanks = false, fullRows = false)
  }

  test("a neighborhood larger than its workspace fails with a message, not an index error") {
    val g = hubGraph(new Random(3), 200, 2)
    val ws = workspaceFor(g, 40)
    val rank = Array.range(0, g.m)
    val big = (0 until g.n).filter(g.degree(_) > 40)
    assert(big.nonEmpty)
    for (u <- big) {
      val e = intercept[IllegalArgumentException](new AnchorContext(g, rank, u, needRanks = false, ws))
      assert(e.getMessage.contains("does not fit"), e.getMessage)
    }
    val pos = Degeneracy.compute(g).pos
    val late = big.filter(v => g.neighbors(v).exists(w => pos(w) > pos(v)))
    assert(late.nonEmpty)
    for (v <- late) {
      val e = intercept[IllegalArgumentException](BranchGraph.forVertexBranch(g, pos, v, ws))
      assert(e.getMessage.contains("does not fit"), e.getMessage)
    }
  }
}
