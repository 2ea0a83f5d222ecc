package repro.mce

import repro.graph.{ForwardLists, LocalGraph}

/** Local-index subgraph for one level-1 branch, with *dual* adjacency.
  *
  * `fullFlat` is the row-major adjacency matrix (bitset rows of `words`
  * longs) of the branch vertices in the original graph G; `survFlat` keeps
  * only edges whose global rank exceeds the branch's ordering threshold
  * (the paper's `E_+` sets). When no candidate pair has been consumed,
  * `survFlat eq fullFlat` and the kernels skip every dual-graph check.
  * See DESIGN.md §4.
  *
  * [[Workspace.neighborhood]] builds `fullFlat` up to a row bound `rowsEnd`:
  * rows before it are complete, rows from it on have bits only before it.
  * Edge branches build every row of their anchor (`rowsEnd = nLoc`); a
  * vertex branch puts its candidates first and builds only their rows
  * (`rowsEnd = |C|`), as the kernels never consult X×X adjacency.
  *
  * A workspace owns one branch graph (`Workspace.graph`), over its `hFlat`.
  * Every level-1 build sets its `nLoc`, `words` and `localRank` once, and
  * every edge branch sets its `survFlat` (`hFlat`, or the workspace's rows
  * with the branch's consumed pairs dropped), so the graph is valid until
  * the next level-1 build on `ws`.
  *
  * @param localRank the anchor's pair ranks over `fullFlat`, for
  *                  edge-branching below level 1 (Table IV, d ≥ 2); null
  *                  when only vertex kernels run.
  * @param ws        the workspace whose `Solver` runs the branch's kernels
  */
final class BranchGraph(
    var nLoc: Int,
    var words: Int,
    var survFlat: Array[Long],
    val fullFlat: Array[Long],
    val globalIds: Array[Int],
    var localRank: PairRanks,
    val ws: Workspace
) {
  /** Re-points this graph at a level-1 build of `nLoc` vertices, no pair dropped. */
  private[mce] def set(nLoc: Int, words: Int, localRank: PairRanks): Unit = {
    this.nLoc = nLoc; this.words = words; this.localRank = localRank; survFlat = fullFlat
  }
}

/** The global edge rank of every adjacent pair {q, i} of the rows `rows`
  * (`words` longs each), stored once, in the row of its larger end i: row by
  * row, ascending q < i within a row, so the store follows the bit order of
  * `rows` below its diagonal. `base(i * words + k)` is the number of pairs
  * stored before word k of row i, so pair (i, q) with q < i is at its word's
  * base plus the set bits below q in that word, and a row's ranks below the
  * diagonal are one contiguous run. The store holds one rank per edge among
  * the rows, at most nLoc·δ for an anchor of nLoc rows and never more than
  * the graph's m, where a dense matrix would hold nLoc². Only this file reads
  * the layout; the kernels read ranks by pair. A workspace owns one store
  * over its buffers, made by its first ranked [[Workspace.neighborhood]] and
  * re-filled by every later one (its `words`, and `rank` grown in place); it
  * is valid until the next level-1 build on that workspace.
  */
final class PairRanks(val rows: Array[Long], var words: Int, val base: Array[Int], var rank: Array[Int]) {
  /** The store index of the adjacent pair (i, q), q < i. */
  def index(i: Int, q: Int): Int = {
    val w = i * words + (q >>> 6)
    base(w) + java.lang.Long.bitCount(rows(w) & ((1L << q) - 1))
  }

  /** The rank of the adjacent pair {i, q}, in either order. */
  def apply(i: Int, q: Int): Int = rank(if (q < i) index(i, q) else index(q, i))
}

/** Reusable per-thread scratch for level-1 construction and the kernels:
  * the layout buffers, global-id marks, the neighborhood matrix and its pair
  * ranks, a branch's C, X, S prefix and dropped rows, and the one
  * `BranchGraph`, `BranchResult.Branch` record, `AnchorContext` and
  * `Kernels.Solver`. Buffers are sized once, for neighborhoods of up to
  * `maxDegree` vertices, except the rank store and the pair list that fills
  * it, which grow to the largest anchor's pair count and forward-list
  * entries; none is maxDegree² in size, and those that only an edge level 1
  * reads are made on first use. After a warm-up, a level-1 build allocates
  * nothing; what it writes is valid until the next one. `forward` holds the
  * forward lists of the graph whose neighborhoods it builds
  * (`Prepared.forward`).
  */
final class Workspace(private[mce] val forward: ForwardLists, maxDegree: Int) {
  private val maxWords = Bits.words(maxDegree)
  private val rowWords = maxDegree.toLong * maxWords
  require(rowWords <= Int.MaxValue,
    s"a neighborhood of degree $maxDegree needs a $rowWords-word adjacency matrix; at most " +
      s"${Int.MaxValue} words fit in one array")

  /** A level-1 layout: local index → global id. */
  val idsBuf = new Array[Int](maxDegree)
  // global-id → local index marks (stamped, no clearing needed)
  private val markStamp = new Array[Int](forward.n)
  val markLocal = new Array[Int](forward.n)
  private var stamp = 0
  /** The neighborhood matrix of the last `neighborhood` call. */
  val hFlat = new Array[Long](rowWords.toInt)
  // The buffers that only ranked builds use are made on first use, so a
  // vertex level 1 makes none. `AnchorContext`'s layout sort keys:
  private[mce] lazy val keyBuf = new Array[Long](maxDegree)
  // the last ranked neighborhood's `PairRanks`, and the pairs that its walk
  // found, (i << 32 | q) with q < i, with their ranks
  private lazy val pairRanks = new PairRanks(hFlat, 1, new Array[Int](rowWords.toInt), Array.emptyIntArray)
  private var found = Array.emptyLongArray
  private var foundRank = Array.emptyIntArray
  /** An edge branch's rows with its consumed pairs dropped. */
  private[mce] lazy val survRows = new Array[Long](rowWords.toInt)

  /** The branch graph of every non-trivial level-1 branch built here. */
  private[mce] val graph = new BranchGraph(0, 1, hFlat, hFlat, idsBuf, null, this)
  /** The record of every non-trivial level-1 branch built here. */
  private[mce] val branch = BranchResult.Branch(graph, null, null, null)
  private[mce] val anchor = new AnchorContext(this)
  /** A level-1 branch's S prefix: {u, v} for an edge, {v} for a vertex. */
  private[mce] val pair = new Array[Int](2)
  private[mce] val single = new Array[Int](1)
  private[mce] val pairClique = BranchResult.Trivial(pair)
  // a level-1 branch's C and X, one of each word width
  private val cSets = new Array[Array[Long]](maxWords + 1)
  private val xSets = new Array[Array[Long]](maxWords + 1)
  private[mce] def cSet(width: Int): Array[Long] = setOf(cSets, width)
  private[mce] def xSet(width: Int): Array[Long] = setOf(xSets, width)
  private def setOf(sets: Array[Array[Long]], width: Int): Array[Long] = {
    if (sets(width) == null) sets(width) = new Array[Long](width)
    sets(width)
  }

  private[mce] val solver = new Kernels.Solver

  /** Throws unless a neighborhood of `nLoc` vertices fits. */
  private[mce] def fit(nLoc: Int): Unit =
    if (nLoc > maxDegree)
      throw new IllegalArgumentException(
        s"a neighborhood of degree $nLoc does not fit a workspace sized for degree $maxDegree")

  /** The one builder of level-1 neighborhood adjacency. Marks each
    * `ids(i)`, i < `nLoc`, with local index i in `markLocal`, and sets in
    * `hFlat` (rows of `words` longs) both cells of every adjacent pair
    * (i, q) with min(i, q) < `rowsEnd`; all other cells are zero. Each pair
    * is found once, with its edge id, in the forward list of its earlier
    * endpoint, so the walk costs Σ_i fdeg(ids(i)) ≤ nLoc·δ. With `rank`
    * non-null the walk also lists each pair with its global edge rank; then
    * the prefix counts of `hFlat`'s bits below the diagonal are taken, each
    * listed rank is stored at its pair's index, and the workspace's
    * [[PairRanks]] are returned. Without `rank` it returns null.
    */
  def neighborhood(ids: Array[Int], nLoc: Int, rowsEnd: Int, words: Int, rank: Array[Int]): PairRanks = {
    fit(nLoc)
    val h = hFlat
    java.util.Arrays.fill(h, 0, nLoc * words, 0L)
    stamp += 1
    val st = stamp
    val marks = markStamp
    val local = markLocal
    var i = 0
    while (i < nLoc) { marks(ids(i)) = st; local(ids(i)) = i; i += 1 }
    val fOff = forward.off
    val fAdj = forward.adj
    val fEdge = forward.edge
    if (rank != null) {
      // the walk finds at most one pair per forward-list entry
      var entries = 0
      i = 0
      while (i < nLoc) { entries += fOff(ids(i) + 1) - fOff(ids(i)); i += 1 }
      if (found.length < entries) {
        found = new Array[Long](math.max(entries, 2 * found.length))
        foundRank = new Array[Int](found.length)
      }
    }
    val listed = found
    val listedRank = foundRank
    var n = 0
    i = 0
    while (i < nLoc) {
      var p = fOff(ids(i))
      val end = fOff(ids(i) + 1)
      while (p < end) {
        val b = fAdj(p)
        if (marks(b) == st) {
          val q = local(b)
          if (i < rowsEnd || q < rowsEnd) {
            Bits.setRow(h, i * words, q); Bits.setRow(h, q * words, i)
            if (rank != null) {
              listed(n) = (math.max(i, q).toLong << 32) | math.min(i, q)
              listedRank(n) = rank(fEdge(p))
              n += 1
            }
          }
        }
        p += 1
      }
      i += 1
    }
    if (rank == null) return null
    val base = pairRanks.base
    var stored = 0
    i = 0
    while (i < nLoc) {
      var w = i * words
      val diagonal = w + (i >>> 6)
      while (w < diagonal) { base(w) = stored; stored += java.lang.Long.bitCount(h(w)); w += 1 }
      base(w) = stored; stored += java.lang.Long.bitCount(h(w) & ((1L << i) - 1)); w += 1
      while (w < (i + 1) * words) { base(w) = stored; w += 1 }
      i += 1
    }
    val store = pairRanks
    store.words = words
    if (store.rank.length < n) store.rank = new Array[Int](math.max(n, 2 * store.rank.length))
    val out = store.rank
    var k = 0
    while (k < n) {
      out(store.index((listed(k) >>> 32).toInt, listed(k).toInt)) = listedRank(k)
      k += 1
    }
    store
  }
}

/** Outcome of building a level-1 branch. `Trivial` carries the clique to
  * emit (or null for a dead branch) without any graph materialization.
  * Either case and its arrays belong to the workspace: a `Branch` is the
  * workspace's one record (`Workspace.branch`) over its one graph, which
  * every level-1 build re-points, and the `Trivial`s are fixed. Both are
  * valid until the next level-1 build on the same workspace.
  */
sealed trait BranchResult
object BranchResult {
  final case class Trivial(emit: Array[Int]) extends BranchResult
  final case class Branch(bg: BranchGraph, var c: Array[Long], var x: Array[Long], var s: Array[Int])
    extends BranchResult {
    /** Re-points this record at a new branch of `bg`. */
    private[mce] def set(c: Array[Long], x: Array[Long], s: Array[Int]): Branch = {
      this.c = c; this.x = x; this.s = s
      this
    }
  }
  /** A branch whose candidates are all excluded. */
  val dead: Trivial = Trivial(null)
}

/** Shared state for all level-1 edge branches anchored at one vertex `u`.
  *
  * Building a branch's local graph from scratch per edge costs
  * Σ_(w ∈ C) deg(w) *per edge* — the paper instead amortizes subgraph
  * construction across the initial branch (Algorithm 3 line 4 initializes
  * the V±/E± sets once). We group edges by an anchor endpoint and build the
  * anchor's neighborhood matrix `H` (adjacency among N(u)) plus the ranks of
  * its adjacent pairs (a [[PairRanks]] store, one rank per adjacent pair)
  * once; every anchored edge branch is then derived with word operations
  * and rank reads:
  *
  *  - N(u) is laid out in descending rank(u,·) order, so the candidates of
  *    the branch of e = (u,v) live in the prefix [0, local(v)) — candidate
  *    bitsets span only words(local(v)) words;
  *  - the branch universe A = N(u) ∩ N(v) is exactly H's row of v;
  *  - survival of a candidate w (rank(v,w) > rank(e)) reads row v's ranks
  *    below its diagonal, one contiguous run in the order of its bits.
  *
  * The layout, H and the ranks live in the per-thread [[Workspace]] and
  * are reused across anchors, and so do a branch's C, X, S prefix and, in
  * the uncommon case that some candidate pair is already consumed, its
  * surviving rows (`BranchGraph.dropConsumed`). A branch is the workspace's
  * `Branch` record over its one `BranchGraph`, whose size, width and
  * carried ranks [[at]] sets once per anchor (`needRanks` iff d ≥ 2) and
  * whose rows in force [[branch]] sets, so neither allocates. Each workspace
  * owns one context (`Workspace.anchor`), re-pointed by
  * `Prepared.foreachBranch`; `new AnchorContext(g, rank, u, needRanks, ws)`
  * makes another one over the same workspace. Either is valid until the
  * next level-1 build on its workspace.
  */
final class AnchorContext private[mce] (ws: Workspace) {
  private var g: LocalGraph = _
  private var rank: Array[Int] = _
  private var anchor = -1
  private var pairRanks: PairRanks = _

  def this(g: LocalGraph, rank: Array[Int], u: Int, needRanks: Boolean, ws: Workspace) = {
    this(ws)
    at(g, rank, u, needRanks)
  }

  /** The anchor vertex. */
  def u: Int = anchor
  /** The anchor's degree: the vertices of its neighborhood. */
  def nLoc: Int = ws.graph.nLoc
  /** The words of one neighborhood row. */
  def words: Int = ws.graph.words

  /** Re-points this context at anchor `u` of `g` under the edge ranks `rank`:
    * lays out N(u) in descending rank(u,·) order in `ws.idsBuf` and builds
    * H and its pair ranks on the workspace, and sets the workspace's graph
    * to N(u), carrying the ranks iff `needRanks`.
    */
  private[mce] def at(g: LocalGraph, rank: Array[Int], u: Int, needRanks: Boolean): AnchorContext = {
    val nLoc = g.degree(u)
    ws.fit(nLoc)
    val words = Bits.words(math.max(1, nLoc))
    this.g = g; this.rank = rank; anchor = u
    // key: ~rank in the high half (descending rank), the neighbor's id in
    // the low half; edge ranks are distinct, so the id only fills the key
    val keys = ws.keyBuf
    val start = g.offsets(u)
    var i = 0
    while (i < nLoc) {
      keys(i) = (~rank(g.adjEdge(start + i)).toLong << 32) | g.adj(start + i)
      i += 1
    }
    java.util.Arrays.sort(keys, 0, nLoc)
    val ids = ws.idsBuf
    i = 0
    while (i < nLoc) { ids(i) = keys(i).toInt; i += 1 }
    pairRanks = ws.neighborhood(ids, nLoc, nLoc, words, rank)
    ws.graph.set(nLoc, words, if (needRanks) pairRanks else null)
    this
  }

  /** Local index of a neighbor w of u — valid while this anchor's marks are
    * current (all of an anchor's branches run before the next anchor).
    */
  def localOf(w: Int): Int = ws.markLocal(w)

  /** Build the branch of edge e = (u, v). */
  def branch(e: Int): BranchResult = {
    val u = anchor
    val graph = ws.graph
    val words = graph.words
    val h = ws.hFlat
    val v = if (g.eu(e) == u) g.ev(e) else g.eu(e)
    val r = rank(e)
    val vL = localOf(v)
    val rowV = vL * words
    // A = N(u) ∩ N(v) = H row of v. Empty → maximal 2-clique {u, v}.
    var empty = true
    var i = 0
    while (empty && i < words) { if (h(rowV + i) != 0L) empty = false; i += 1 }
    ws.pair(0) = u; ws.pair(1) = v
    if (empty) return ws.pairClique
    // Candidates live in the prefix [0, vL): rank(u,w) > r there; keep those
    // with rank(v,w) > r too: row v's ranks below its diagonal, in bit order.
    val cWords = Bits.words(math.max(1, vL))
    val c = ws.cSet(cWords)
    val vRanks = pairRanks.rank
    var next = pairRanks.base(rowV)
    var cCount = 0
    i = 0
    while (i < cWords) {
      var word = h(rowV + i)
      if ((i + 1) * 64 > vL) word &= (if ((vL & 63) == 0) 0L else -1L >>> (64 - (vL & 63)))
      var kept = 0L
      while (word != 0L) {
        val b = java.lang.Long.numberOfTrailingZeros(word)
        if (vRanks(next) > r) { kept |= 1L << b; cCount += 1 }
        next += 1
        word &= word - 1
      }
      c(i) = kept
      i += 1
    }
    if (cCount == 0) return BranchResult.dead // all excluded
    val x = ws.xSet(words)
    i = 0
    while (i < words) {
      x(i) = h(rowV + i) & ~(if (i < cWords) c(i) else 0L)
      i += 1
    }
    graph.survFlat = BranchGraph.dropConsumed(c, pairRanks, r, ws.survRows)
    ws.branch.set(c, x, ws.pair)
  }
}

object BranchGraph {

  /** The consumed-pair rule of edge branching (DESIGN.md §4) for a level-1
    * branch: once the branch of an edge of rank `r` is taken, no pair ranked
    * at or below `r` may be used again. Returns `store.rows` itself when no
    * pair inside `c` that is adjacent there has rank ≤ r; otherwise `out`
    * (at least nLoc × words longs, not `store.rows`) with `c`'s rows copied
    * in and exactly those pairs cleared. Other rows of `out` are not written
    * and must not be read. Its one caller is [[AnchorContext.branch]]: an
    * anchor's branches come in edge-id order, not rank order, so their
    * consumed pairs are read from ranks. `Kernels.edgeRec` applies the same
    * rule by taking its steps in rank order.
    */
  def dropConsumed(c: Array[Long], store: PairRanks, r: Int, out: Array[Long]): Array[Long] = {
    val words = store.words
    val rows = store.rows
    val base = store.base
    val rank = store.rank
    var dropped = rows
    var i = 0
    while (i < c.length) {
      var word = c(i)
      while (word != 0L) {
        val b = (i << 6) + java.lang.Long.numberOfTrailingZeros(word)
        word &= word - 1
        // partners a < b inside c, whose ranks row b stores in bit order:
        // earlier words, then word i below b
        var k = 0
        while (k <= i) {
          val w = b * words + k
          val rowWord = rows(w)
          var pair = rowWord & c(k)
          if (k == i) pair &= (1L << b) - 1
          if (pair != 0L) {
            val wordBase = base(w)
            while (pair != 0L) {
              val a = (k << 6) + java.lang.Long.numberOfTrailingZeros(pair)
              pair &= pair - 1
              if (rank(wordBase + java.lang.Long.bitCount(rowWord & ((1L << a) - 1))) <= r) {
                if (dropped eq rows) {
                  copyRows(rows, out, words, c)
                  dropped = out
                }
                Bits.clear2d(out, a * words, b)
                Bits.clear2d(out, b * words, a)
              }
            }
          }
          k += 1
        }
      }
      i += 1
    }
    dropped
  }

  /** Copies `c`'s rows of `from` (`words` longs each) into `to`. */
  private[mce] def copyRows(from: Array[Long], to: Array[Long], words: Int, c: Array[Long]): Unit = {
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

  /** Branch for level-1 *vertex* branching at vertex `v` under the
    * degeneracy order (BK_Degen-style split): universe = N(v); candidates =
    * neighbors later in the order, exclusions = earlier. Single adjacency in
    * the workspace's `hFlat`; the branch is the workspace's `Branch` record
    * over its one graph, and like its C, X and S it is valid until the next
    * level-1 build. `g` is
    * GR's reduced graph, a 3-core, so `v` is never isolated; `pos` are the
    * degeneracy positions that `ws`'s forward lists follow.
    */
  def forVertexBranch(g: LocalGraph, pos: Array[Int], v: Int, ws: Workspace): BranchResult = {
    val nLoc = g.degree(v)
    val fwd = ws.forward
    val cCount = fwd.off(v + 1) - fwd.off(v)
    if (cCount == 0) return BranchResult.dead // all neighbors earlier
    ws.fit(nLoc)
    // Layout: candidates (v's forward list), then exclusions, each in
    // ascending id (pivot ties follow it).
    val ids = ws.idsBuf
    System.arraycopy(fwd.adj, fwd.off(v), ids, 0, cCount)
    var nx = cCount
    var p = g.offsets(v)
    while (p < g.offsets(v + 1)) { if (pos(g.adj(p)) < pos(v)) { ids(nx) = g.adj(p); nx += 1 }; p += 1 }
    val words = Bits.words(nLoc)
    ws.neighborhood(ids, nLoc, cCount, words, null)
    ws.graph.set(nLoc, words, null)
    val c = ws.cSet(Bits.words(cCount))
    java.util.Arrays.fill(c, 0L)
    var i = 0
    while (i < cCount) { Bits.set(c, i); i += 1 }
    val x = ws.xSet(words)
    java.util.Arrays.fill(x, 0L)
    while (i < nLoc) { Bits.set(x, i); i += 1 }
    ws.single(0) = v
    ws.branch.set(c, x, ws.single)
  }
}
