package repro.graph


/** The truss ordering of the canonical edges of a graph.
  *
  * @param rank  rank(edgeId) = position in the ordering (0-based; smaller = earlier)
  * @param bound τ, the largest support an edge has when the peel removes
  *              it: no level-1 candidate graph of this ordering holds more
  *              than τ vertices
  */
final case class EdgeOrderResult(rank: Array[Int], bound: Int) extends Serializable

/** Truss-based edge ordering (Wang, Yu, Long — EBBkC [19], reused by HBBMC).
  *
  * Greedy procedure: iteratively remove from the remaining graph the edge
  * whose endpoints have the fewest common neighbors (its *support*) and
  * append it to the ordering. The maximum support at removal time is τ,
  * which bounds the candidate-graph size of every sub-branch produced by
  * edge-oriented branching, and satisfies τ < δ on graphs with at least
  * one triangle (strictly, τ ≤ δ − 1 — see [19]).
  */
object TrussOrder {

  /** The longest array a JVM is sure to allocate: a few header words short
    * of `Int.MaxValue`.
    */
  private val MaxSlots = Int.MaxValue - 8

  /** The truss ordering of the graph whose degeneracy-forward lists are
    * `fwd`.
    */
  def compute(fwd: ForwardLists): EdgeOrderResult = {
    val m = fwd.adj.length
    if (m == 0) return EdgeOrderResult(new Array[Int](0), 0)
    // Triangle listing in O(δm): each edge is oriented to its later endpoint
    // in the degeneracy order, and only the forward lists (ascending id, with
    // edge ids, at most δ entries each) are walked. Each triangle is
    // recorded on each of its three edges as the pair of the OTHER two edge
    // ids (6 ints per triangle), so the peel below is a pure array walk.
    // Pass 0 counts the triangles per edge, pass 1 fills that CSR: during the
    // fill off(e + 1) holds the next free slot of e, which starts at e's
    // start and ends at its end, so no cursor array is needed.
    val n = fwd.n
    val fOff = fwd.off
    val fAdj = fwd.adj
    val fEdge = fwd.edge
    val triCnt = new Array[Int](m)
    val off = new Array[Int](m + 1)
    var otherA: Array[Int] = null; var otherB: Array[Int] = null
    val markEdge = new Array[Int](n) // edge id of (u, w) for marked w, else -1
    java.util.Arrays.fill(markEdge, -1)
    var pass = 0
    while (pass < 2) {
      var u = 0
      while (u < n) {
        val pe = fOff(u + 1)
        var p = fOff(u)
        while (p < pe) { markEdge(fAdj(p)) = fEdge(p); p += 1 }
        p = fOff(u)
        while (p < pe) {
          val a = fAdj(p); val eUA = fEdge(p)
          var q = fOff(a); val qe = fOff(a + 1)
          while (q < qe) {
            val eUW = markEdge(fAdj(q))
            if (eUW >= 0) {
              val eAW = fEdge(q)
              if (pass == 0) { triCnt(eUA) += 1; triCnt(eUW) += 1; triCnt(eAW) += 1 }
              else {
                otherA(off(eUA + 1)) = eUW; otherB(off(eUA + 1)) = eAW; off(eUA + 1) += 1
                otherA(off(eUW + 1)) = eUA; otherB(off(eUW + 1)) = eAW; off(eUW + 1) += 1
                otherA(off(eAW + 1)) = eUA; otherB(off(eAW + 1)) = eUW; off(eAW + 1) += 1
              }
            }
            q += 1
          }
          p += 1
        }
        p = fOff(u)
        while (p < pe) { markEdge(fAdj(p)) = -1; p += 1 }
        u += 1
      }
      if (pass == 0) {
        var slots = 0L
        var e = 0
        while (e < m) { off(e + 1) = slots.toInt; slots += triCnt(e); e += 1 }
        if (slots > MaxSlots) throw new IllegalArgumentException(
          s"truss ordering: ${slots / 3} triangles need $slots triangle slots, " +
          s"more than one array holds ($MaxSlots)")
        otherA = new Array[Int](slots.toInt); otherB = new Array[Int](slots.toInt)
      }
      pass += 1
    }
    // Peel: repeatedly remove the minimum-support edge; supports = live
    // triangle counts. Each live edge sits once in the list of its support
    // (`head`, then `next`), newest first, which is the edge a stack per
    // support would pop; the ranks depend on that tie order.
    val sup = triCnt
    val head = Array.fill(sup.max + 1)(-1)
    val next = new Array[Int](m)
    val prev = new Array[Int](m)
    def link(e: Int): Unit = {
      val h = head(sup(e))
      next(e) = h; prev(e) = -1
      if (h >= 0) prev(h) = e
      head(sup(e)) = e
    }
    def unlink(e: Int): Unit = {
      if (prev(e) >= 0) next(prev(e)) = next(e) else head(sup(e)) = next(e)
      if (next(e) >= 0) prev(next(e)) = prev(e)
    }
    var e = 0
    while (e < m) { link(e); e += 1 }
    val rank = Array.fill(m)(-1) // -1 while the edge is live
    var tau = 0
    var nextRank = 0
    var cur = 0
    while (nextRank < m) {
      while (head(cur) < 0) cur += 1
      val cand = head(cur)
      unlink(cand)
      rank(cand) = nextRank
      tau = math.max(tau, cur)
      nextRank += 1
      var k = off(cand)
      val ke = off(cand + 1)
      while (k < ke) {
        val e1 = otherA(k); val e2 = otherB(k)
        if (rank(e1) < 0 && rank(e2) < 0) {
          unlink(e1); sup(e1) -= 1; link(e1)
          unlink(e2); sup(e2) -= 1; link(e2)
          cur = math.min(cur, math.min(sup(e1), sup(e2)))
        }
        k += 1
      }
    }
    EdgeOrderResult(rank, tau)
  }
}

/** The level-1 edge orderings of paper Table VI. Only the truss ordering
  * proves a candidate-size bound (τ); the other two are rank arrays.
  */
object EdgeOrders {

  /** The paper's default: truss-based ordering, bound = τ. */
  def truss(g: LocalGraph): EdgeOrderResult =
    TrussOrder.compute(ForwardLists(g, Degeneracy.compute(g).pos))

  /** `HBBMC-dgn`: edges sorted "alphabetically" by the degeneracy positions
    * of their endpoints — each edge oriented (earlier pos, later pos), then
    * sorted lexicographically.
    */
  def degeneracyLex(g: LocalGraph, deg: DegeneracyResult): Array[Int] =
    fromKeys(Array.tabulate(g.m) { e =>
      val pu = deg.pos(g.eu(e)); val pv = deg.pos(g.ev(e))
      val lo = math.min(pu, pv).toLong; val hi = math.max(pu, pv).toLong
      (lo << 32) | hi
    })

  /** `HBBMC-mdg`: edges in non-decreasing order of the trivial support
    * upper bound min(deg(u), deg(v)) − 1.
    */
  def minDegree(g: LocalGraph): Array[Int] =
    fromKeys(Array.tabulate(g.m) { e =>
      val d = math.min(g.degree(g.eu(e)), g.degree(g.ev(e))).toLong
      (d << 32) | e.toLong // the edge id breaks ties and keeps keys distinct
    })

  /** Rank the edges by `keys`, which are distinct: an edge's rank is the
    * index of its key in the sorted keys.
    */
  private def fromKeys(keys: Array[Long]): Array[Int] = {
    val sorted = keys.clone()
    java.util.Arrays.sort(sorted)
    val rank = new Array[Int](keys.length)
    var e = 0
    while (e < keys.length) { rank(e) = java.util.Arrays.binarySearch(sorted, keys(e)); e += 1 }
    rank
  }
}
