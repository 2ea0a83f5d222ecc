package repro.mce

import repro.graph.LocalGraph

/** Local-index subgraph for one level-1 branch, with *dual* adjacency.
  *
  * `fullFlat` is the row-major adjacency matrix (bitset rows of `words`
  * longs) of the branch vertices in the original graph G; `survFlat` keeps
  * only edges whose global rank exceeds the branch's ordering threshold
  * (the paper's `E_+` sets). When no candidate pair has been consumed,
  * `survFlat eq fullFlat` and the kernels skip every dual-graph check.
  * See DESIGN.md §4.
  *
  * Rows are only materialized where the kernels read them: candidate
  * vertices get complete rows; exclusion vertices get bits at candidate
  * positions only (X×X adjacency is never consulted), and no surviving
  * rows at all.
  *
  * @param localRank row-major rank matrix (stride `nLoc`) of the local
  *                  candidate pairs, for edge-branching below level 1
  *                  (Table IV, d ≥ 2); null when only vertex kernels run.
  *                  Cells of non-adjacent pairs are never read.
  */
final class BranchGraph(
    val nLoc: Int,
    val words: Int,
    val survFlat: Array[Long],
    val fullFlat: Array[Long],
    val globalIds: Array[Int],
    val localRank: Array[Int]
)

/** Reusable per-thread scratch for branch construction: member/flag buffers
  * plus the shared anchor-neighborhood matrices.
  */
final class Workspace(n: Int) {
  val idsBuf = new Array[Int](n)
  val flagBuf = new Array[Boolean](n)
  val newIdxBuf = new Array[Int](n)
  // global-id → anchor-local index marks (stamped, no clearing needed)
  val markStamp = new Array[Int](n)
  val markLocal = new Array[Int](n)
  var stamp = 0
  def nextStamp(): Int = { stamp += 1; stamp }
  // shared anchor-neighborhood matrices, grown on demand and reused
  var hFlat = new Array[Long](1024)
  var hRank = new Array[Int](4096)
  def ensureAnchor(nLoc: Int, words: Int): Unit = {
    val cells = nLoc.toLong * nLoc
    require(cells <= Workspace.MaxAnchorCells,
      s"an anchor of degree $nLoc needs a $cells-cell pair-rank matrix; at most " +
        s"${Workspace.MaxAnchorCells} cells (degree ${Workspace.MaxAnchorDegree}) fit in one array")
    val fl = nLoc * words
    if (hFlat.length < fl) hFlat = new Array[Long](math.max(fl, hFlat.length * 2))
    java.util.Arrays.fill(hFlat, 0, fl, 0L)
    val rl = cells.toInt
    if (hRank.length < rl) hRank = new Array[Int](math.max(rl, hRank.length * 2))
  }
}

object Workspace {
  /** Largest anchor degree whose nLoc × nLoc pair-rank matrix fits in one
    * JVM array; the pair keys of `Kernels.edgeRec` rely on it too.
    */
  val MaxAnchorDegree: Int = 46340
  val MaxAnchorCells: Long = MaxAnchorDegree.toLong * MaxAnchorDegree
}

/** Outcome of building a level-1 branch. `Trivial` carries the clique to
  * emit (or null for a dead branch) without any graph materialization.
  */
sealed trait BranchResult
object BranchResult {
  final case class Trivial(emit: Array[Int]) extends BranchResult
  final case class Branch(bg: BranchGraph, c: Array[Long], x: Array[Long], s: Array[Int]) extends BranchResult
}

/** Shared state for all level-1 edge branches anchored at one vertex `u`.
  *
  * Building a branch's local graph from scratch per edge costs
  * Σ_(w ∈ C) deg(w) *per edge* — the paper instead amortizes subgraph
  * construction across the initial branch (Algorithm 3 line 4 initializes
  * the V±/E± sets once). We group edges by an anchor endpoint and build the
  * anchor's neighborhood matrix `H` (adjacency among N(u)) plus a dense
  * pair-rank matrix once; every anchored edge branch is then derived with
  * word operations and O(1) rank lookups:
  *
  *  - N(u) is laid out in descending rank(u,·) order, so the candidates of
  *    the branch of e = (u,v) live in the prefix [0, local(v)) — candidate
  *    bitsets span only words(local(v)) words;
  *  - the branch universe A = N(u) ∩ N(v) is exactly H's row of v;
  *  - survival of a candidate pair (rank > rank(e)) is one matrix read.
  *
  * The matrices live in the per-thread [[Workspace]] and are reused across
  * anchors, so a branch allocates only its C/X sets (plus a C-row surviving
  * copy in the uncommon case that some candidate pair is already consumed).
  */
final class AnchorContext(g: LocalGraph, rank: Array[Int], val u: Int,
                          needRanks: Boolean, ws: Workspace) {
  val nLoc: Int = g.degree(u)
  val words: Int = Bits.words(math.max(1, nLoc))
  /** neighbors of u in descending rank(u,·) order */
  val ids: Array[Int] = {
    val a = g.neighbors(u)
    val keys = a.map(w => rank(g.edgeId(u, w)))
    val idx = a.indices.toArray.map(Integer.valueOf)
    java.util.Arrays.sort(idx, (p: Integer, q: Integer) => Integer.compare(keys(q), keys(p)))
    idx.map(a(_))
  }
  // Build H and the pair-rank matrix. ensureAnchor may replace the shared
  // buffers with larger ones, so capture them only afterwards.
  ws.ensureAnchor(nLoc, words)
  private val h = ws.hFlat
  private val hRank = ws.hRank
  private val localRanks = if (needRanks) hRank else null
  locally {
    val stamp = ws.nextStamp()
    var i = 0
    while (i < nLoc) { ws.markStamp(ids(i)) = stamp; ws.markLocal(ids(i)) = i; i += 1 }
    i = 0
    while (i < nLoc) {
      val a = ids(i)
      var p = g.offsets(a); val pe = g.offsets(a + 1)
      while (p < pe) {
        val b = g.adj(p)
        if (ws.markStamp(b) == stamp) {
          val q = ws.markLocal(b)
          if (q > i) {
            Bits.setRow(h, i * words, q); Bits.setRow(h, q * words, i)
            val er = rank(g.edgeId(a, b))
            hRank(i * nLoc + q) = er; hRank(q * nLoc + i) = er
          }
        }
        p += 1
      }
      i += 1
    }
  }

  /** Local index of a neighbor w of u — valid while this anchor's marks are
    * current (all of an anchor's branches run before the next anchor).
    */
  def localOf(w: Int): Int = ws.markLocal(w)

  /** Build the branch of edge e = (u, v). */
  def branch(e: Int): BranchResult = {
    val v = if (g.eu(e) == u) g.ev(e) else g.eu(e)
    val r = rank(e)
    val vL = localOf(v)
    val rowV = vL * words
    // A = N(u) ∩ N(v) = H row of v. Empty → maximal 2-clique {u, v}.
    var empty = true
    var i = 0
    while (empty && i < words) { if (h(rowV + i) != 0L) empty = false; i += 1 }
    if (empty) return BranchResult.Trivial(Array(u, v))
    // Candidates live in the prefix [0, vL): rank(u,w) > r there; keep those
    // with rank(v,w) > r too.
    val cWords = Bits.words(math.max(1, vL))
    val c = new Array[Long](cWords)
    var cCount = 0
    i = 0
    while (i < cWords) {
      var word = h(rowV + i)
      if ((i + 1) * 64 > vL) word &= (if ((vL & 63) == 0) 0L else -1L >>> (64 - (vL & 63)))
      while (word != 0L) {
        val b = java.lang.Long.numberOfTrailingZeros(word)
        val w = (i << 6) + b
        if (hRank(vL * nLoc + w) > r) { Bits.set(c, w); cCount += 1 }
        word &= word - 1
      }
      i += 1
    }
    val x = new Array[Long](words)
    i = 0
    while (i < words) {
      x(i) = h(rowV + i) & ~(if (i < cWords) c(i) else 0L)
      i += 1
    }
    if (cCount == 0) return BranchResult.Trivial(null) // all excluded: dead
    val surv = BranchGraph.dropConsumed(h, nLoc, words, c, hRank, r)
    val bg = new BranchGraph(nLoc, words, surv, h, ids, localRanks)
    BranchResult.Branch(bg, c, x, Array(u, v))
  }
}

object BranchGraph {

  /** The one consumed-pair rule of edge branching (DESIGN.md §4): once the
    * branch of an edge of rank `r` is taken, no pair ranked at or below `r`
    * may be used again. Returns `rows` itself when no pair inside `c` that
    * is adjacent in `rows` has rank ≤ r (`ranks` is row-major, stride
    * `nLoc`); otherwise a fresh matrix holding `c`'s rows of `rows` with
    * exactly those pairs cleared (all other rows empty).
    */
  def dropConsumed(rows: Array[Long], nLoc: Int, words: Int, c: Array[Long],
                   ranks: Array[Int], r: Int): Array[Long] = {
    var out = rows
    var i = 0
    while (i < c.length) {
      var word = c(i)
      while (word != 0L) {
        val a = (i << 6) + java.lang.Long.numberOfTrailingZeros(word)
        word &= word - 1
        // partners b > a inside c: the rest of word i, then later words
        var k = i
        while (k < c.length) {
          var pair = rows(a * words + k) & c(k)
          if (k == i) pair &= -2L << (a & 63)
          while (pair != 0L) {
            val b = (k << 6) + java.lang.Long.numberOfTrailingZeros(pair)
            pair &= pair - 1
            if (ranks(a * nLoc + b) <= r) {
              if (out eq rows) {
                out = new Array[Long](nLoc * words)
                copyRows(rows, out, words, c)
              }
              Bits.clear2d(out, a * words, b)
              Bits.clear2d(out, b * words, a)
            }
          }
          k += 1
        }
      }
      i += 1
    }
    out
  }

  private def copyRows(from: Array[Long], to: Array[Long], words: Int, c: Array[Long]): Unit = {
    var i = 0
    while (i < c.length) {
      var word = c(i)
      while (word != 0L) {
        val a = (i << 6) + java.lang.Long.numberOfTrailingZeros(word)
        System.arraycopy(from, a * words, to, a * words, words)
        word &= word - 1
      }
      i += 1
    }
  }

  /** Test/utility constructor: wrap a whole graph as one branch with full
    * adjacency (C = caller's choice), single (non-dual) adjacency.
    */
  def ofWholeGraph(g: LocalGraph): BranchGraph = {
    val n = g.n
    val words = Bits.words(math.max(1, n))
    val flat = new Array[Long](n * words)
    var e = 0
    while (e < g.m) {
      Bits.setRow(flat, g.eu(e) * words, g.ev(e))
      Bits.setRow(flat, g.ev(e) * words, g.eu(e))
      e += 1
    }
    new BranchGraph(n, words, flat, flat, Array.tabulate(n)(identity), null)
  }

  /** Branch for level-1 *vertex* branching at vertex `v` under the
    * degeneracy order (BK_Degen-style split): universe = N(v); candidates =
    * neighbors later in the order, exclusions = earlier. Single adjacency.
    */
  def forVertexBranch(g: LocalGraph, pos: Array[Int], v: Int, ws: Workspace): BranchResult = {
    val nLoc = g.degree(v)
    if (nLoc == 0) return BranchResult.Trivial(Array(v)) // isolated: 1-clique
    val ids = ws.idsBuf
    val isCand = ws.flagBuf
    var cCount = 0
    var i = 0
    g.foreachNeighbor(v) { w =>
      ids(i) = w
      isCand(i) = pos(w) > pos(v)
      if (isCand(i)) cCount += 1
      i += 1
    }
    if (cCount == 0) return BranchResult.Trivial(null) // all neighbors earlier: dead
    val words = Bits.words(nLoc)
    val cWords = Bits.words(cCount)
    val newIdx = ws.newIdxBuf
    var nc = 0; var nx = cCount
    i = 0
    while (i < nLoc) {
      if (isCand(i)) { newIdx(i) = nc; nc += 1 } else { newIdx(i) = nx; nx += 1 }
      i += 1
    }
    val adj = new Array[Long](nLoc * words)
    val c = new Array[Long](cWords)
    i = 0
    while (i < cCount) { Bits.set(c, i); i += 1 }
    val x = new Array[Long](words)
    i = cCount
    while (i < nLoc) { Bits.set(x, i); i += 1 }
    i = 0
    while (i < nLoc) {
      if (isCand(i)) {
        val a = ids(i)
        val offI = newIdx(i) * words
        if (g.degree(a) > 8 * nLoc) {
          var q = 0
          while (q < nLoc) {
            if (q != i && (!isCand(q) || q > i) && g.hasEdge(a, ids(q))) {
              Bits.setRow(adj, offI, newIdx(q)); Bits.setRow(adj, newIdx(q) * words, newIdx(i))
            }
            q += 1
          }
        } else {
          var p = g.offsets(a); val pe = g.offsets(a + 1)
          var q = 0
          while (p < pe && q < nLoc) {
            val na = g.adj(p); val nb = ids(q)
            if (na == nb) {
              if (!isCand(q) || q > i) {
                Bits.setRow(adj, offI, newIdx(q)); Bits.setRow(adj, newIdx(q) * words, newIdx(i))
              }
              p += 1; q += 1
            } else if (na < nb) p += 1
            else q += 1
          }
        }
      }
      i += 1
    }
    val localIds = new Array[Int](nLoc)
    i = 0
    while (i < nLoc) { localIds(newIdx(i)) = ids(i); i += 1 }
    BranchResult.Branch(new BranchGraph(nLoc, words, adj, adj, localIds, null), c, x, Array(v))
  }
}
