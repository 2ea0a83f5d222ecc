package repro.mce

import repro.graph.{Degeneracy, DegeneracyResult, LocalGraph}
import scala.collection.mutable.ArrayBuffer

/** Graph reduction (GR) of Deng, Zheng, Cheng (VLDB'24), as used by the
  * paper's HBBMC++ and all R* baselines: iteratively remove vertices of
  * (current) degree ≤ 2 and report the maximal cliques involving them
  * directly, so no branches are ever created for them.
  *
  * Every direct emission is validated for maximality against the ORIGINAL
  * graph (common-neighbor tests), which both suppresses non-maximal sets
  * and guarantees that cliques covered at an earlier removal are not
  * duplicated — see DESIGN.md §4. A maximal clique is emitted exactly once:
  * at the removal of its earliest-removed vertex, or by the main enumeration
  * on the reduced graph if it has no removed vertex.
  */
object GraphReduction {

  /** @param reduced    the graph induced by surviving vertices (re-indexed)
    * @param oldId      reduced-vertex id → original id
    * @param removedAny whether any vertex was removed
    * @param degeneracy the degeneracy peel of the input graph, which is also
    *                   `reduced`'s when no vertex was removed
    */
  final case class Result(reduced: LocalGraph, oldId: Array[Int], removedAny: Boolean,
                          degeneracy: DegeneracyResult)

  def reduce(g: LocalGraph, sink: CliqueSink): Result = {
    val n = g.n
    // GR removes exactly the vertices outside the 3-core. Coreness never
    // decreases along the degeneracy order, so they are its prefix of
    // coreness ≤ 2; removed in that order, each one's alive neighbours are
    // those later in the order, at most its degree at removal (≤ 2).
    val degeneracy = Degeneracy.compute(g)
    val order = degeneracy.order
    val pos = degeneracy.pos
    var removed = 0
    while (removed < n && degeneracy.coreness(order(removed)) <= 2) removed += 1
    val buf = new Array[Int](3)
    var i = 0
    while (i < removed) {
      val vv = order(i)
      // Alive neighbors — at most two.
      var u = -1; var w = -1
      g.foreachNeighbor(vv) { t =>
        if (pos(t) > i) { if (u == -1) u = t else w = t }
      }
      if (u == -1) {
        // Isolated now: {v} is maximal iff it was isolated originally
        // (otherwise some earlier removal already covered v's cliques).
        if (g.degree(vv) == 0) { buf(0) = vv; sink.emit(buf, 1) }
      } else if (w == -1) {
        // Pendant: {v,u} is maximal iff u,v have no common neighbor in G.
        if (g.commonNeighborCount(vv, u) == 0) {
          buf(0) = vv; buf(1) = u; sink.emit(buf, 2)
        }
      } else if (g.hasEdge(u, w)) {
        // Triangle {v,u,w}: maximal iff no vertex of G is adjacent to all.
        if (!hasCommonNeighbor3(g, vv, u, w)) {
          buf(0) = vv; buf(1) = u; buf(2) = w; sink.emit(buf, 3)
        }
      } else {
        if (g.commonNeighborCount(vv, u) == 0) { buf(0) = vv; buf(1) = u; sink.emit(buf, 2) }
        if (g.commonNeighborCount(vv, w) == 0) { buf(0) = vv; buf(1) = w; sink.emit(buf, 2) }
      }
      i += 1
    }
    if (removed == 0) return Result(g, Array.tabulate(n)(identity), removedAny = false, degeneracy)
    val oldId = (0 until n).filter(pos(_) >= removed).toArray
    val newId = Array.fill(n)(-1)
    i = 0
    while (i < oldId.length) { newId(oldId(i)) = i; i += 1 }
    val edges = new ArrayBuffer[(Int, Int)]()
    var e = 0
    while (e < g.m) {
      val a = g.eu(e); val b = g.ev(e)
      if (newId(a) >= 0 && newId(b) >= 0) edges += ((newId(a), newId(b)))
      e += 1
    }
    Result(LocalGraph.fromEdges(oldId.length, edges), oldId, removedAny = true, degeneracy)
  }

  private def hasCommonNeighbor3(g: LocalGraph, a: Int, b: Int, c: Int): Boolean = {
    val common = g.commonNeighbors(a, b)
    var i = 0
    while (i < common.length) {
      val t = common(i)
      if (t != c && g.hasEdge(t, c)) return true
      i += 1
    }
    false
  }
}
