package repro.mce

/** Early termination (paper Section IV, Algorithms 5–8).
  *
  * Precondition (checked by the caller during its pivot/degree scan):
  * the branch's candidate graph `g_C` is a t-plex with t ≤ 3, the
  * exclusion graph is empty, and no pair inside `C` uses a consumed
  * edge (`full == surv` within `C`). Then the complement of `g_C` has
  * maximum degree ≤ 2, so it decomposes into isolated vertices `F`,
  * simple paths and simple cycles. Maximal cliques of `g_C` are exactly
  * `F ∪ (one maximal independent set per path) ∪ (one per cycle)`,
  * enumerated here in output-proportional time without branching.
  *
  * A 1-plex (clique) yields only `F` (Alg. 5's trivial case; callers
  * usually fast-path it); a 2-plex yields |p| = 2 paths only (Alg. 5);
  * a 3-plex yields paths and cycles (Alg. 8). The enumeration writes
  * straight into the caller's clique buffer — no per-choice allocation.
  */
object EarlyTermination {

  /** Enumerate all maximal cliques of the branch directly.
    *
    * @param c      candidate set (local ids of `bg`)
    * @param buf    shared output buffer already holding the partial clique S
    *               (global ids) in positions [0, prefixLen)
    */
  def enumerate(bg: BranchGraph, c: Array[Long], buf: Array[Int], prefixLen: Int,
                sink: CliqueSink): Unit = {
    val cArr = Bits.toArray(c)
    val nC = cArr.length
    if (nC == 0) { sink.emit(buf, prefixLen); return }
    // Under the precondition no consumed pair lies inside C, so the rows in
    // force equal the full rows there.
    val full = bg.fullFlat
    val W = bg.words
    // Complement adjacency (≤ 2 per vertex for a 3-plex), positions into cArr.
    val nbr1 = Array.fill(nC)(-1)
    val nbr2 = Array.fill(nC)(-1)
    var i = 0
    while (i < nC) {
      var j = i + 1
      while (j < nC) {
        if (!Bits.getRow(full, cArr(i) * W, cArr(j))) {
          if (nbr1(i) == -1) nbr1(i) = j
          else { require(nbr2(i) == -1, "complement degree > 2 — not a 3-plex"); nbr2(i) = j }
          if (nbr1(j) == -1) nbr1(j) = i
          else { require(nbr2(j) == -1, "complement degree > 2 — not a 3-plex"); nbr2(j) = i }
        }
        j += 1
      }
      i += 1
    }
    var len = prefixLen
    // F: vertices isolated in the complement → in every maximal clique.
    val visited = new Array[Boolean](nC)
    i = 0
    while (i < nC) {
      if (nbr1(i) == -1) {
        buf(len) = bg.globalIds(cArr(i)); len += 1
        visited(i) = true
      }
      i += 1
    }
    // Decompose the rest into paths (walk from degree-1 endpoints) and
    // cycles; all component vertices go into one shared array.
    val compV = new Array[Int](nC)  // positions into cArr, consecutive order
    val compStart = new Array[Int](nC + 1)
    val compCyc = new Array[Boolean](nC)
    var nComps = 0
    var cv = 0
    def walk(start: Int): Unit = {
      var prev = -1
      var cur = start
      var done = false
      while (!done) {
        compV(cv) = cur; cv += 1
        visited(cur) = true
        var next = -1
        val a = nbr1(cur); val b = nbr2(cur)
        if (a != -1 && a != prev && !visited(a)) next = a
        else if (b != -1 && b != prev && !visited(b)) next = b
        if (next == -1) done = true
        else { prev = cur; cur = next }
      }
    }
    i = 0
    while (i < nC) {
      if (!visited(i) && nbr2(i) == -1) { // degree-1 endpoint: a path
        compStart(nComps) = cv; compCyc(nComps) = false
        walk(i)
        nComps += 1
      }
      i += 1
    }
    i = 0
    while (i < nC) {
      if (!visited(i)) { // remaining components are simple cycles
        compStart(nComps) = cv; compCyc(nComps) = true
        walk(i)
        nComps += 1
      }
      i += 1
    }
    compStart(nComps) = cv

    // Cartesian combination (Alg. 8 lines 5–8): recurse over components,
    // writing choices straight into `buf`.
    def gid(pos: Int): Int = bg.globalIds(cArr(compV(pos)))

    // Maximal independent sets of the path compV[st + from .. st + to]
    // (inclusive, relative indices), continuing with component ci + 1.
    // `lastRel` is the relative index of the last chosen vertex.
    def pathRec(ci: Int, st: Int, to: Int, lastRel: Int, blen: Int): Unit = {
      if (lastRel + 2 > to) { emitFrom(ci + 1, blen); return }
      buf(blen) = gid(st + lastRel + 2)
      pathRec(ci, st, to, lastRel + 2, blen + 1)
      if (lastRel + 3 <= to) {
        buf(blen) = gid(st + lastRel + 3)
        pathRec(ci, st, to, lastRel + 3, blen + 1)
      }
    }

    def emitFrom(ci: Int, blen: Int): Unit = {
      if (ci == nComps) { sink.emit(buf, blen); return }
      val st = compStart(ci)
      val L = compStart(ci + 1) - st
      if (!compCyc(ci)) {
        // Algorithm 6: start with p(0) or p(1).
        buf(blen) = gid(st); pathRec(ci, st, L - 1, 0, blen + 1)
        buf(blen) = gid(st + 1); pathRec(ci, st, L - 1, 1, blen + 1)
      } else if (L == 3) {
        var k = 0
        while (k < 3) { buf(blen) = gid(st + k); emitFrom(ci + 1, blen + 1); k += 1 }
      } else if (L == 4) {
        buf(blen) = gid(st); buf(blen + 1) = gid(st + 2); emitFrom(ci + 1, blen + 2)
        buf(blen) = gid(st + 1); buf(blen + 1) = gid(st + 3); emitFrom(ci + 1, blen + 2)
      } else if (L == 5) {
        var k = 0
        while (k < 5) {
          buf(blen) = gid(st + k); buf(blen + 1) = gid(st + (k + 2) % 5)
          emitFrom(ci + 1, blen + 2)
          k += 1
        }
      } else {
        // Algorithm 7, |c| >= 6: three cases, each a path restriction.
        // Case 1: c(0) in — path c(0)..c(L-2).
        buf(blen) = gid(st); pathRec(ci, st, L - 2, 0, blen + 1)
        // Case 2: c(1) in — path c(1)..c(L-1), i.e. offset st+1.
        buf(blen) = gid(st + 1); pathRec(ci, st + 1, L - 2, 0, blen + 1)
        // Case 3: neither — c(L-1) and c(2) both in; path c(2)..c(L-3).
        buf(blen) = gid(st + L - 1); buf(blen + 1) = gid(st + 2)
        pathRec(ci, st + 2, L - 5, 0, blen + 2)
      }
    }
    emitFrom(0, len)
  }
}
