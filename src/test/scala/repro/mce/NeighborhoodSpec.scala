package repro.mce

import repro.SparkSpec
import repro.graph.LocalGraph
import scala.util.Random

/** `Workspace.neighborhood`, the one builder of level-1 neighborhood
  * adjacency, against a brute-force reference built from the edge list.
  */
class NeighborhoodSpec extends SparkSpec {

  /** G(n, 0.05) plus `hubs` vertices adjacent to almost everything, so that
    * a hub's degree exceeds 8× a typical neighborhood and the builder
    * probes its row instead of scanning it.
    */
  private def hubGraph(rng: Random, n: Int, hubs: Int): LocalGraph = {
    val edges = for {
      a <- 0 until n; b <- a + 1 until n
      if (if (a < hubs) rng.nextDouble() < 0.95 else rng.nextDouble() < 0.05)
    } yield (a, b)
    LocalGraph.fromEdges(n, edges)
  }

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
    * the reference. Returns the number of rows built by probing and by
    * scanning.
    */
  private def check(g: LocalGraph, ws: Workspace, rng: Random, u: Int, withRanks: Boolean,
                    fullRows: Boolean): (Int, Int) = {
    val ids = rng.shuffle(g.neighbors(u).toSeq).toArray
    val nLoc = ids.length
    val words = Bits.words(nLoc)
    val rowsEnd = if (fullRows) nLoc else rng.nextInt(nLoc)
    val rank = rng.shuffle(Vector.range(0, g.m)).toArray
    ws.neighborhood(g, ids, nLoc, rowsEnd, words, if (withRanks) rank else null)
    val (want, wantRanks) = reference(g, ids, nLoc, rowsEnd, words, rank)
    val clue = s"u=$u nLoc=$nLoc rowsEnd=$rowsEnd"
    assert(ws.hFlat.take(nLoc * words).sameElements(want), clue)
    for (i <- rowsEnd until nLoc; q <- rowsEnd until nLoc)
      assert(!Bits.getRow(ws.hFlat, i * words, q), s"$clue: cell ($i, $q) past rowsEnd")
    assert(ids.indices.forall(i => ws.markLocal(ids(i)) == i), clue)
    if (withRanks)
      wantRanks.foreach { case ((i, q), r) => assert(ws.hRank(i * nLoc + q) == r, s"$clue ($i, $q)") }
    val probed = (0 until rowsEnd).count(i => g.degree(ids(i)) > 8 * nLoc)
    (probed, rowsEnd - probed)
  }

  test("ranks, every row: matches the reference, by scan and by hub probe") {
    var probed, scanned = 0
    for (seed <- 0 until 6) {
      val rng = new Random(seed)
      val g = hubGraph(rng, 300, 3)
      val ws = new Workspace(g.n, (0 until g.n).map(g.degree).max, ranks = true)
      for (u <- 3 until 300 by 23 if g.degree(u) > 0) {
        val (p, s) = check(g, ws, rng, u, withRanks = true, fullRows = true)
        probed += p; scanned += s
      }
    }
    assert(probed > 0 && scanned > 0, s"probed $probed, scanned $scanned rows")
  }

  test("no ranks, a row prefix: matches the reference, later rows hold no pair among themselves") {
    var probed, scanned = 0
    for (seed <- 0 until 6) {
      val rng = new Random(100 + seed)
      val g = hubGraph(rng, 300, 3)
      val ws = new Workspace(g.n, (0 until g.n).map(g.degree).max, ranks = true)
      for (u <- 3 until 300 by 17 if g.degree(u) > 0) {
        val (p, s) = check(g, ws, rng, u, withRanks = false, fullRows = false)
        probed += p; scanned += s
      }
    }
    assert(probed > 0 && scanned > 0, s"probed $probed, scanned $scanned rows")
  }

  test("a smaller neighborhood after a larger one in the same workspace has no stale bits") {
    val rng = new Random(7)
    val g = hubGraph(rng, 300, 3)
    val ws = new Workspace(g.n, (0 until g.n).map(g.degree).max, ranks = true)
    val bySize = (3 until 300).filter(g.degree(_) > 0).sortBy(g.degree)
    // a hub's full neighborhood, then small ones in both layouts
    check(g, ws, rng, 0, withRanks = true, fullRows = true)
    check(g, ws, rng, bySize.head, withRanks = true, fullRows = true)
    check(g, ws, rng, 1, withRanks = false, fullRows = true)
    check(g, ws, rng, bySize(1), withRanks = false, fullRows = false)
  }
}
