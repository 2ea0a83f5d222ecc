package repro.mce

/** Branch-local enumeration kernels.
  *
  * A level-1 branch (one edge or one vertex of the ordered initial split)
  * is solved entirely inside its `BranchGraph` with bitset sets. Four
  * vertex-oriented variants mirror the paper's baselines. They share one
  * Bron–Kerbosch step (`Solver.take`) and differ only in which candidates
  * they branch on:
  *
  *  - [[Kernels.Pivot]] — classic Tomita max-pivot (BK_Pivot / BK_Degen);
  *    the inner engine of HBBMC (Algorithm 4).
  *  - [[Kernels.Ref]]   — BK_Ref-style refined pivoting: prefer exclusion-set
  *    pivots on ties and kill branches dominated by an exclusion vertex.
  *  - [[Kernels.Rcd]]   — BK_Rcd (Algorithm 9): repeatedly branch on the
  *    minimum-degree candidate until the candidate graph is a clique.
  *  - [[Kernels.Fac]]   — BK_Fac (Algorithm 10): start from an arbitrary
  *    pivot and opportunistically replace it when a processed vertex would
  *    produce fewer branches.
  *
  * Edge-oriented branching below level 1 (`edgeRec`) implements EBBMC's
  * recursive step (Algorithm 3 lines 7–12); it is used for the paper's
  * Table IV (d ≥ 2) and pure EBBMC, and takes each node's pairs in rank order.
  *
  * Every kernel call opens with the same prologue (`Solver.open`), and early
  * termination (Section IV, `Solver.terminate`) hooks in there: the t-plex
  * condition is checked during the degree scan that pivot selection needs
  * anyway, as the paper prescribes. The pairs that may still be used inside
  * C are recorded once, in the `Solver`'s rows in force (DESIGN.md §4).
  * When the scan finds no consumed pair inside C, those rows become the full
  * rows for the whole subtree, and every dual-graph check there is skipped.
  *
  * Each [[Workspace]] owns one `Solver`, which runs every branch solved on
  * that workspace and reuses its buffers, so no kernel call allocates.
  */
object Kernels {

  sealed trait Variant extends Serializable
  case object Pivot extends Variant
  case object Ref extends Variant
  case object Rcd extends Variant
  case object Fac extends Variant

  /** Kernel-level configuration (see `repro.mce.MceConfig`). */
  final case class KernelConfig(variant: Variant, etT: Int, edgeDepth: Int) extends Serializable

  /** Solve one level-1 branch on the `Solver` of its workspace (`bg.ws`).
    * The kernels update `c` and `x` in place, so the caller must not read
    * them afterwards.
    *
    * @param sPrefix global vertex ids already in the partial clique S
    * @param level   depth of this branch in the recursion tree (level-1 = 1,
    *                so kernels start at 2); edge-oriented branching continues
    *                while `level <= edgeDepth`
    */
  def solve(bg: BranchGraph, c: Array[Long], x: Array[Long], sPrefix: Array[Int],
            level: Int, cfg: KernelConfig, counters: Counters, sink: CliqueSink): Unit =
    bg.ws.solver.solve(bg, c, x, sPrefix, level, cfg, counters, sink)

  /** Sort key of the candidate pair of rank `rank` at slot `slot` of its
    * level's pair list: keys ascend by rank, then by slot. Both are
    * non-negative ints, so each fills one half of the key.
    */
  private[mce] def pairKey(rank: Int, slot: Int): Long = (rank.toLong << 32) | slot
  /** The pair-list slot of a [[pairKey]]. */
  private[mce] def keyIndex(key: Long): Int = key.toInt

  /** A stack of `width`-word bitsets: `take` hands out the next free slot,
    * and a caller frees everything taken since it read `top` by writing
    * `top` back. Slots are made once and keep their stale contents.
    */
  private final class Pool(width: Int) {
    private var slots = new Array[Array[Long]](8)
    var top = 0
    def take(): Array[Long] = {
      if (top == slots.length) slots = java.util.Arrays.copyOf(slots, 2 * top)
      var s = slots(top)
      if (s == null) { s = new Array[Long](width); slots(top) = s }
      top += 1
      s
    }
  }

  /** One `Array[Long]` per recursion level, each grown to the largest size
    * asked of it at that level.
    */
  private final class PerLevel {
    private var bufs = new Array[Array[Long]](4)
    def apply(level: Int, size: Int): Array[Long] = {
      if (level >= bufs.length) bufs = java.util.Arrays.copyOf(bufs, math.max(level + 1, 2 * bufs.length))
      var b = bufs(level)
      if (b == null || b.length < size) {
        b = new Array[Long](if (b == null) size else math.max(size, 2 * b.length))
        bufs(level) = b
      }
      b
    }
  }

  /** The search state of the level-1 branches solved on one [[Workspace]].
    *
    * A workspace owns one `Solver` for its whole life (one per run, Spark
    * task or thread), and `solve` points it at each branch in turn. Every
    * buffer it holds is made once and then reused, so in steady state no
    * kernel call allocates (per-call allocation otherwise throttles 16-way
    * Spark execution with GC): the clique buffer grows to the largest
    * branch, and the depth pools, early termination's arrays and
    * `edgeRec`'s per-level buffers to the largest use.
    *
    * A kernel owns the C and X it is handed: no caller reads them again, so
    * the kernel updates them in place. Every other set a call needs comes
    * from the depth pools of the branch's C and X widths, one `Pool` per
    * word width because every `Bits` op takes its word count from the array
    * length (when C and X are equally wide they share one). The recursion
    * is properly nested, so the pools work like a stack: a step takes the
    * next free slots for its child and rewinds both pools when the child
    * returns, which also frees whatever the child took. Early termination
    * takes its endpoint set from the same pool and lays out its complement
    * walks in two int arrays.
    *
    * `surv` is the one record of the pairs that may still be used: inside
    * the current C it holds exactly the pairs not yet consumed. Two places
    * swap it, and each restores the caller's rows when its subtree returns:
    * `scan` swaps in the full rows when no consumed pair lies inside C
    * (`vertexRec` restores), and every edge step of `edgeRec` swaps in its
    * node's rows with the pairs of the earlier steps cleared.
    */
  private[mce] final class Solver {
    private var cfg: KernelConfig = _
    private var counters: Counters = _
    private var sink: CliqueSink = _
    private var globalIds: Array[Int] = _
    private var ranks: PairRanks = _
    private var nLoc = 0
    private var W = 0
    // The rows in force; `surv eq full` means no consumed pair lies inside C.
    private var surv: Array[Long] = _
    private var full: Array[Long] = _
    private var buf = Array.emptyIntArray
    private var len = 0

    private var pools = new Array[Pool](0)
    private var cPool: Pool = _
    private var xPool: Pool = _
    private def pool(width: Int): Pool = {
      if (width >= pools.length) pools = java.util.Arrays.copyOf(pools, math.max(width + 1, 2 * pools.length))
      if (pools(width) == null) pools(width) = new Pool(width)
      pools(width)
    }

    // `edgeRec`'s pair keys, the pairs they index and its node's rows with
    // the pairs of its finished steps cleared, per level
    private val keyBufs = new PerLevel
    private val pairBufs = new PerLevel
    private val rowBufs = new PerLevel

    /** Point the solver at branch `bg`, with S = `sPrefix`, and solve it
      * (see [[Kernels.solve]]).
      */
    def solve(bg: BranchGraph, c: Array[Long], x: Array[Long], sPrefix: Array[Int],
              level: Int, cfg: KernelConfig, counters: Counters, sink: CliqueSink): Unit = {
      this.cfg = cfg; this.counters = counters; this.sink = sink
      globalIds = bg.globalIds; ranks = bg.localRank; nLoc = bg.nLoc; W = bg.words
      surv = bg.survFlat; full = bg.fullFlat
      // S holds distinct branch vertices after the prefix
      if (buf.length < sPrefix.length + nLoc) buf = new Array[Int](sPrefix.length + nLoc)
      System.arraycopy(sPrefix, 0, buf, 0, sPrefix.length)
      len = sPrefix.length
      cPool = pool(c.length); cPool.top = 0
      xPool = pool(x.length); xPool.top = 0
      dispatch(c, x, level)
    }

    /** Branch on edges while `level` is within the edge depth, on vertices
      * after it. An edge depth of 2 or more implies an edge-ordered level 1
      * (`MceConfig` checks it), whose branches carry `localRank`.
      */
    private def dispatch(c: Array[Long], x: Array[Long], level: Int): Unit =
      if (level <= cfg.edgeDepth) edgeRec(c, x, level)
      else vertexRec(c, x)

    /** Run the configured vertex variant; restore the rows in force, which
      * its scans may have swapped for the full rows.
      */
    private def vertexRec(c: Array[Long], x: Array[Long]): Unit = {
      val saved = surv
      cfg.variant match {
        case Pivot => pivotRec(c, x, refMode = false)
        case Ref   => pivotRec(c, x, refMode = true)
        case Rcd   => rcdRec(c, x)
        case Fac   => facRec(c, x)
      }
      // Store only on a change: a reference store into the long-lived
      // Solver costs a GC write barrier on every call.
      if (surv ne saved) surv = saved
    }

    /** The prologue of every kernel call: count the call and emit S when
      * C = X = ∅; when `scans`, run the degree `scan` and the t-plex exit.
      * Returns |C|, or -1 when the branch is done.
      */
    private def open(c: Array[Long], x: Array[Long], scans: Boolean): Int = {
      counters.calls += 1
      val cSize = Bits.count(c)
      if (cSize == 0) {
        if (Bits.isEmpty(x)) emit()
        -1
      } else if (scans && { scan(c); plexDone(c, cSize, x) }) -1
      else cSize
    }

    /** The one vertex step: recurse into the child of candidate `v` —
      * C ∩ N_surv(v), and X ∩ N_full(v) plus, unless `surv eq full`, the
      * candidates whose pair with v is consumed — then move v from C to X.
      */
    private def take(v: Int, c: Array[Long], x: Array[Long]): Unit = {
      val cMark = cPool.top
      val xMark = xPool.top
      val cN = cPool.take()
      val xN = xPool.take()
      Bits.andIntoRow(cN, c, surv, v * W)
      if (surv eq full) Bits.andIntoRow(xN, x, full, v * W)
      else Bits.mixXIntoRow(xN, x, c, full, surv, v * W)
      buf(len) = globalIds(v); len += 1
      vertexRec(cN, xN)
      len -= 1
      cPool.top = cMark
      xPool.top = xMark
      Bits.clear(c, v); Bits.set(x, v)
    }

    private def emit(): Unit = sink.emit(buf, len)

    /** Emit S ∪ `set`. */
    private def emitWith(set: Array[Long]): Unit = {
      val save = len
      var i = 0
      while (i < set.length) {
        var word = set(i)
        while (word != 0L) {
          buf(len) = globalIds((i << 6) + java.lang.Long.numberOfTrailingZeros(word)); len += 1
          word &= word - 1
        }
        i += 1
      }
      emit()
      len = save
    }

    // Results of the last `scan`, read by the caller before it recurses: the
    // minimum and maximum surviving degree inside C and a vertex attaining
    // each.
    private var minD = 0
    private var minV = -1
    private var maxD = 0
    private var maxV = -1

    /** The degree scan that pivot selection needs anyway; the t-plex check
      * of early termination rides on it. Unless `surv eq full` already, it
      * also counts full degrees, and when they all match (no consumed pair
      * inside C) it swaps in the full rows for the subtree.
      */
    private def scan(c: Array[Long]): Unit = {
      // Locals and a plain bit loop keep the hot scan free of closures; the
      // fields are written once at the end.
      val dual = surv ne full
      var lo = Int.MaxValue; var loV = -1; var hi = -1; var hiV = -1; var noDel = true
      var i = 0
      while (i < c.length) {
        var word = c(i)
        while (word != 0L) {
          val v = (i << 6) + java.lang.Long.numberOfTrailingZeros(word)
          val ds = Bits.countAndRow(c, surv, v * W)
          if (dual && noDel && Bits.countAndRow(c, full, v * W) != ds) noDel = false
          if (ds < lo) { lo = ds; loV = v }
          if (ds > hi) { hi = ds; hiV = v }
          word &= word - 1
        }
        i += 1
      }
      minD = lo; minV = loV; maxD = hi; maxV = hiV
      if (dual && noDel) surv = full
    }

    /** After a `scan` of C (|C| = `cSize`): count a t-plex branch (the
      * paper's b) and, when X is empty, solve it by early termination
      * (`terminate`). Returns true when the branch is done.
      */
    private def plexDone(c: Array[Long], cSize: Int, x: Array[Long]): Boolean =
      if (cfg.etT >= 1 && (surv eq full) && minD >= cSize - cfg.etT) {
        counters.plexBranches += 1
        if (Bits.isEmpty(x)) {
          counters.etApplied += 1
          terminate(c, cSize)
          true
        } else false
      } else false

    // ---------------------------------------------------- early termination

    // The complement components of the last `terminate`, laid out by their
    // walks: the global ids of component k are etVerts[etStart(k),
    // etStart(k + 1)); the first `etPaths` components are paths, the rest
    // cycles. Both arrays grow to the largest C.
    private var etVerts = Array.emptyIntArray
    private var etStart = Array.emptyIntArray
    private var etPaths = 0
    private var etComps = 0

    /** Early termination (Section IV, Alg. 5–8) of a t-plex C (t ≤ 3, from
      * `plexDone`: X = ∅ and no consumed pair inside C, so the full rows are
      * the rows in force there). The complement of g_C has maximum degree
      * 2, so it splits into isolated vertices F, simple paths and simple
      * cycles, and the maximal cliques are S ∪ F plus one maximal
      * independent set of each path and each cycle. Each vertex's
      * complement is read a word at a time, as `c & ~full(v)`. Consumes `c`,
      * which no caller reads again.
      */
    private def terminate(c: Array[Long], cSize: Int): Unit = {
      if (minD == cSize - 1) { emitWith(c); return }
      val save = len
      val cMark = cPool.top
      // One pass over C: F goes onto the clique and leaves C; the path
      // endpoints (complement degree 1) are marked in `ends`.
      val ends = cPool.take()
      java.util.Arrays.fill(ends, 0L)
      var i = 0
      while (i < c.length) {
        var word = c(i)
        while (word != 0L) {
          val v = (i << 6) + java.lang.Long.numberOfTrailingZeros(word)
          word &= word - 1
          // v itself is in C and not in its own row
          val d = Bits.countAndNotRow(c, full, v * W) - 1
          if (d > 2) throw new IllegalArgumentException(s"complement degree $d > 2 — not a 3-plex")
          if (d == 0) { buf(len) = globalIds(v); len += 1; Bits.clear(c, v) }
          else if (d == 1) Bits.set(ends, v)
        }
        i += 1
      }
      if (etVerts.length < cSize) { etVerts = new Array[Int](cSize); etStart = new Array[Int](cSize + 1) }
      // Walk every path from its lower endpoint, then every cycle from its
      // lowest vertex; each walk removes its component from C.
      var n = 0
      var k = 0
      i = 0
      while (i < ends.length) {
        var word = ends(i)
        while (word != 0L) {
          val v = (i << 6) + java.lang.Long.numberOfTrailingZeros(word)
          word &= word - 1
          if (Bits.getRow(c, 0, v)) { etStart(k) = n; k += 1; n = walk(c, v, n) }
        }
        i += 1
      }
      etPaths = k
      var v = Bits.first(c)
      while (v >= 0) { etStart(k) = n; k += 1; n = walk(c, v, n); v = Bits.first(c) }
      etStart(k) = n
      etComps = k
      cPool.top = cMark
      emitFrom(0)
      len = save
    }

    /** Lay out the complement component of `start` from `etVerts(n)` on,
      * removing it from `c`: each step goes to the lowest complement
      * neighbour still in `c`. Returns the next free position.
      */
    private def walk(c: Array[Long], start: Int, n0: Int): Int = {
      var n = n0
      var v = start
      while (v >= 0) {
        Bits.clear(c, v)
        etVerts(n) = globalIds(v); n += 1
        v = Bits.firstAndNotRow(c, full, v * W)
      }
      n
    }

    private def pick(pos: Int): Unit = { buf(len) = etVerts(pos); len += 1 }

    /** Emit every combination of one maximal independent set per
      * component from `ci` on (Alg. 8 lines 5–8), each pushed onto S.
      */
    private def emitFrom(ci: Int): Unit = {
      if (ci == etComps) { emit(); return }
      val st = etStart(ci)
      val l = etStart(ci + 1) - st
      if (ci < etPaths) {
        // Algorithm 6: start with p(0) or p(1).
        pick(st); pathRec(ci, st, l - 1, 0); len -= 1
        pick(st + 1); pathRec(ci, st, l - 1, 1); len -= 1
      } else if (l == 3) {
        var k = 0
        while (k < 3) { pick(st + k); emitFrom(ci + 1); len -= 1; k += 1 }
      } else if (l == 4) {
        pick(st); pick(st + 2); emitFrom(ci + 1); len -= 2
        pick(st + 1); pick(st + 3); emitFrom(ci + 1); len -= 2
      } else {
        // Algorithm 7, |c| ≥ 5: three cases, each a path restriction.
        // c(0) in: the path c(0)..c(l-2).
        pick(st); pathRec(ci, st, l - 2, 0); len -= 1
        // c(1) in: the path c(1)..c(l-1).
        pick(st + 1); pathRec(ci, st + 1, l - 2, 0); len -= 1
        // neither: c(l-1) and c(2) in; the path c(2)..c(l-3).
        pick(st + l - 1); pick(st + 2); pathRec(ci, st + 2, l - 5, 0); len -= 2
      }
    }

    /** The maximal independent sets of the path etVerts[st, st + to] that
      * extend a choice ending at relative index `last`, each continued with
      * component ci + 1.
      */
    private def pathRec(ci: Int, st: Int, to: Int, last: Int): Unit =
      if (last + 2 > to) emitFrom(ci + 1)
      else {
        pick(st + last + 2); pathRec(ci, st, to, last + 2); len -= 1
        if (last + 3 <= to) { pick(st + last + 3); pathRec(ci, st, to, last + 3); len -= 1 }
      }

    // ---------------------------------------------------------------- pivot

    private def pivotRec(c: Array[Long], x: Array[Long], refMode: Boolean): Unit = {
      val cSize = open(c, x, scans = true)
      if (cSize < 0) return
      var pivot = maxV
      var pivotCnt = maxD
      var pivotFromX = false
      var i = 0
      while (i < x.length) {
        var word = x(i)
        while (word != 0L) {
          val xv = (i << 6) + java.lang.Long.numberOfTrailingZeros(word)
          val cnt = Bits.countAndRow(c, full, xv * W)
          if (cnt > pivotCnt || (refMode && cnt == pivotCnt)) {
            pivotCnt = cnt; pivot = xv; pivotFromX = true
          }
          word &= word - 1
        }
        i += 1
      }
      // BK_Ref-style domination: an exclusion vertex adjacent to every
      // candidate makes every clique of this branch non-maximal.
      if (refMode && pivotFromX && pivotCnt == cSize) return
      val branchSet = cPool.take()
      Bits.andNotIntoRow(branchSet, c, if (pivotFromX) full else surv, pivot * W)
      i = 0
      while (i < branchSet.length) {
        var word = branchSet(i)
        while (word != 0L) {
          take((i << 6) + java.lang.Long.numberOfTrailingZeros(word), c, x)
          word &= word - 1
        }
        i += 1
      }
    }

    // ------------------------------------------------------------------ rcd

    private def rcdRec(c: Array[Long], x: Array[Long]): Unit = {
      var cSize = open(c, x, scans = true)
      if (cSize < 0) return
      while (minD < cSize - 1) {
        take(minV, c, x)
        cSize -= 1
        scan(c)
        if (plexDone(c, cSize, x)) return
      }
      // C is a clique (then necessarily no deleted pair): the single
      // candidate maximal clique is S ∪ C — emit unless an exclusion vertex
      // extends it (Algorithm 9 lines 10-11).
      var i = 0
      while (i < x.length) {
        var word = x(i)
        while (word != 0L) {
          val xv = (i << 6) + java.lang.Long.numberOfTrailingZeros(word)
          if (Bits.countAndRow(c, full, xv * W) == cSize) return
          word &= word - 1
        }
        i += 1
      }
      emitWith(c)
    }

    // ------------------------------------------------------------------ fac

    private def facRec(c: Array[Long], x: Array[Long]): Unit = {
      if (open(c, x, scans = cfg.etT >= 1) < 0) return
      // p: the branches the current pivot leaves; q: those u would leave.
      var p = cPool.take()
      var q = cPool.take()
      Bits.andNotIntoRow(p, c, surv, Bits.first(c) * W)
      var pCount = Bits.count(p)
      while (pCount > 0) {
        val u = Bits.first(p)
        take(u, c, x)
        Bits.clear(p, u); pCount -= 1
        // Alg. 10 lines 15–17: adopt u as pivot if it prunes harder. u is in
        // X now, so its pruning set uses full adjacency.
        Bits.andNotIntoRow(q, c, full, u * W)
        val qCount = Bits.count(q)
        if (qCount < pCount) { val t = p; p = q; q = t; pCount = qCount }
      }
    }

    // ----------------------------------------------------- edge recursion

    /** EBBMC's recursive step: branch on the usable pairs of C (the bits of
      * `surv` inside C) in rank order, then on isolated candidates (Eq. 3).
      * A step consumes exactly the earlier steps' pairs (Alg. 3's E₊ sets):
      * each runs its child on one copy of C's rows in force and then clears
      * its own pair there, so no rank is read per step. `level` grows by one
      * per edge level; once it exceeds `cfg.edgeDepth` the vertex-oriented
      * variant takes over.
      */
    private def edgeRec(c: Array[Long], x: Array[Long], level: Int): Unit = {
      if (open(c, x, scans = cfg.etT >= 1) < 0) return
      // The usable pairs inside C, (b << 32) | a with a < b, in this level's
      // pair list, and their sort keys, by rank and slot: the rows in force
      // count each pair once from either end.
      var ends = 0
      var i = 0
      while (i < c.length) {
        var word = c(i)
        while (word != 0L) {
          ends += Bits.countAndRow(c, surv, ((i << 6) + java.lang.Long.numberOfTrailingZeros(word)) * W)
          word &= word - 1
        }
        i += 1
      }
      val nKeys = ends / 2
      val edges = keyBufs(level, nKeys)
      val pairs = pairBufs(level, nKeys)
      var k = 0
      i = 0
      while (i < c.length) {
        var word = c(i)
        while (word != 0L) {
          val a = (i << 6) + java.lang.Long.numberOfTrailingZeros(word)
          word &= word - 1
          // partners b > a inside C: the rest of word i, then later words
          var q = i
          var pair = c(i) & surv(a * W + i) & (-2L << (a & 63))
          while (q < c.length) {
            while (pair != 0L) {
              val b = (q << 6) + java.lang.Long.numberOfTrailingZeros(pair)
              pairs(k) = (b.toLong << 32) | a
              edges(k) = pairKey(ranks(b, a), k); k += 1
              pair &= pair - 1
            }
            q += 1
            if (q < c.length) pair = c(q) & surv(a * W + q)
          }
        }
        i += 1
      }
      java.util.Arrays.sort(edges, 0, nKeys)
      val cx = xPool.take()
      Bits.orIntoMixed(cx, x, c)
      // `cur`: C's rows in force minus the finished steps' pairs, which are
      // exactly the consumed ones inside C, as the steps run in rank order
      val rows = surv
      val cur = rowBufs(level, nLoc * W)
      BranchGraph.copyRows(rows, cur, W, c)
      var ei = 0
      while (ei < nKeys) {
        val ab = pairs(keyIndex(edges(ei)))
        val a = ab.toInt
        val b = (ab >>> 32).toInt
        val cMark = cPool.top
        val xMark = xPool.top
        // C' = C ∩ N_cur(a) ∩ N_cur(b), the vertices whose usable pairs with
        // both a and b rank after (a, b); X' = (C ∪ X) ∩ N_full(a) ∩
        // N_full(b) minus C'.
        val cNew = cPool.take()
        Bits.andIntoRow(cNew, c, cur, a * W)
        Bits.andIntoRow(cNew, cNew, cur, b * W)
        val xNew = xPool.take()
        Bits.andIntoRow(xNew, cx, full, a * W)
        Bits.andIntoRow(xNew, xNew, full, b * W)
        Bits.andNotInPlace(xNew, cNew)
        buf(len) = globalIds(a); buf(len + 1) = globalIds(b); len += 2
        surv = cur
        dispatch(cNew, xNew, level + 1)
        surv = rows
        Bits.clear2d(cur, a * W, b); Bits.clear2d(cur, b * W, a)
        len -= 2
        cPool.top = cMark
        xPool.top = xMark
        ei += 1
      }
      // Eq. (3): candidates isolated in the surviving graph are singleton
      // extensions; maximal iff nothing in C ∪ X is (fully) adjacent to them.
      i = 0
      while (i < c.length) {
        var word = c(i)
        while (word != 0L) {
          val v = (i << 6) + java.lang.Long.numberOfTrailingZeros(word)
          if (Bits.countAndRow(c, surv, v * W) == 0 && Bits.countAndRow(cx, full, v * W) == 0) {
            buf(len) = globalIds(v); len += 1
            emit()
            len -= 1
          }
          word &= word - 1
        }
        i += 1
      }
    }
  }
}
