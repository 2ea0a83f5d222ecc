package repro.mce

import repro.graph.{Degeneracy, DegeneracyResult, LocalGraph}

/** Graph reduction (GR) of Deng, Zheng, Cheng (VLDB'24), as used by the
  * paper's HBBMC++ and all R* baselines: iteratively remove vertices of
  * (current) degree ≤ 2 and report the maximal cliques involving them
  * directly, so no branches are ever created for them.
  *
  * GR owns the one fact that decides maximality of what it touches: an edge
  * is *closed* once a removed vertex has emitted a triangle on it. A removed
  * vertex has at most two later neighbours, so no vertex of G is adjacent to
  * all of a triangle GR meets, and a pair is covered exactly when its edge is
  * closed — see DESIGN.md §4. A maximal clique is emitted exactly once: at
  * the removal of its earliest-removed vertex, or by the main enumeration on
  * the reduced graph if it has no removed vertex.
  */
object GraphReduction {

  /** @param reduced    the graph induced by surviving vertices (re-indexed)
    * @param oldId      reduced-vertex id → original id
    * @param closed     per edge id of `reduced`: whether a removed vertex
    *                   is adjacent to both endpoints, which makes the pair
    *                   non-maximal in the input graph
    * @param degeneracy the degeneracy peel of `reduced`: the input's peel when
    *                   no vertex was removed, otherwise a peel of the rebuilt
    *                   graph
    */
  final case class Result(reduced: LocalGraph, oldId: Array[Int], closed: Array[Boolean],
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
    val closed = new Array[Boolean](g.m)
    val buf = new Array[Int](3)
    var i = 0
    while (i < removed) {
      val vv = order(i)
      // Alive neighbours u, w (at most two) and the edge ids to them.
      var u = -1; var w = -1; var vu = -1; var vw = -1
      var p = g.offsets(vv)
      while (p < g.offsets(vv + 1)) {
        val t = g.adj(p)
        if (pos(t) > i) {
          if (u == -1) { u = t; vu = g.adjEdge(p) } else { w = t; vw = g.adjEdge(p) }
        }
        p += 1
      }
      val uw = if (w == -1) -1 else g.edgeId(u, w)
      if (u == -1) {
        // Isolated now: {v} is maximal iff it was isolated originally
        // (otherwise some earlier removal already covered v's cliques).
        if (g.degree(vv) == 0) { buf(0) = vv; sink.emit(buf, 1) }
      } else if (uw >= 0) {
        // Triangle {v,u,w}: always maximal. Its edge (u,w) now has a
        // removed common neighbour.
        closed(uw) = true
        buf(0) = vv; buf(1) = u; buf(2) = w; sink.emit(buf, 3)
      } else {
        // Pendant or open path: {v,x} is maximal iff no earlier removal
        // closed it.
        if (!closed(vu)) { buf(0) = vv; buf(1) = u; sink.emit(buf, 2) }
        if (w != -1 && !closed(vw)) { buf(0) = vv; buf(1) = w; sink.emit(buf, 2) }
      }
      i += 1
    }
    if (removed == 0)
      return Result(g, Array.range(0, n), closed, degeneracy)
    val oldId = new Array[Int](n - removed)
    val newId = new Array[Int](n)
    var kept = 0
    i = 0
    while (i < n) {
      if (pos(i) >= removed) { oldId(kept) = i; newId(i) = kept; kept += 1 } else newId(i) = -1
      i += 1
    }
    // `newId` is increasing, so the kept edges, taken in canonical order,
    // keep that order: the k-th kept edge is the reduced graph's edge k.
    var m = 0
    var e = 0
    while (e < g.m) { if (newId(g.eu(e)) >= 0 && newId(g.ev(e)) >= 0) m += 1; e += 1 }
    val eu = new Array[Int](m)
    val ev = new Array[Int](m)
    val closedKept = new Array[Boolean](m)
    var k = 0
    e = 0
    while (e < g.m) {
      val a = newId(g.eu(e)); val b = newId(g.ev(e))
      if (a >= 0 && b >= 0) { eu(k) = a; ev(k) = b; closedKept(k) = closed(e); k += 1 }
      e += 1
    }
    val reduced = LocalGraph.fromCanonical(oldId.length, eu, ev)
    Result(reduced, oldId, closedKept, Degeneracy.compute(reduced))
  }
}
