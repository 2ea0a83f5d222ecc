package repro.mce

import repro.SparkSpec
import repro.graph.GraphGen
import scala.util.Random

/** The consumed-pair rule of edge branching (DESIGN.md §4) and the search
  * tree of the configurations that branch on edges below level 1.
  */
class EdgeBranchingSpec extends SparkSpec {

  /** A random symmetric adjacency matrix (rows of `words` longs) and a
    * random symmetric rank matrix of `nLoc` vertices.
    */
  private def randomAnchor(rng: Random, nLoc: Int, words: Int): (Array[Long], Array[Int]) = {
    val rows = new Array[Long](nLoc * words)
    val ranks = Array.fill(nLoc * nLoc)(-7) // garbage in non-adjacent cells
    for (a <- 0 until nLoc; b <- a + 1 until nLoc if rng.nextDouble() < 0.5) {
      Bits.setRow(rows, a * words, b); Bits.setRow(rows, b * words, a)
      val r = rng.nextInt(100)
      ranks(a * nLoc + b) = r; ranks(b * nLoc + a) = r
    }
    (rows, ranks)
  }

  /** The [[PairRanks]] of the adjacent cells of the dense `ranks`, laid out
    * here one set bit of `rows` below the diagonal at a time.
    */
  private def store(rows: Array[Long], nLoc: Int, words: Int, ranks: Array[Int]): PairRanks = {
    val base = new Array[Int](nLoc * words)
    val stored = Array.newBuilder[Int]
    var n = 0
    for (w <- 0 until nLoc * words) {
      base(w) = n
      val i = w / words
      for (bit <- 0 until 64; q = (w % words) * 64 + bit if q < i && (rows(w) >>> bit & 1L) != 0L) {
        stored += ranks(i * nLoc + q); n += 1
      }
    }
    new PairRanks(rows, words, base, stored.result())
  }

  /** Reference: drop every pair inside `c` adjacent in `rows` with rank ≤ r. */
  private def bruteDrop(rows: Array[Long], nLoc: Int, words: Int, c: Set[Int],
                        ranks: Array[Int], r: Int): Option[Array[Long]] = {
    val consumed = for {
      a <- c.toSeq; b <- c.toSeq
      if a != b && Bits.getRow(rows, a * words, b) && ranks(a * nLoc + b) <= r
    } yield (a, b)
    if (consumed.isEmpty) None
    else {
      val out = new Array[Long](nLoc * words)
      c.foreach(a => System.arraycopy(rows, a * words, out, a * words, words))
      consumed.foreach { case (a, b) => Bits.clear2d(out, a * words, b) }
      Some(out)
    }
  }

  for (seed <- 0 until 12)
    test(s"dropConsumed matches a brute-force reference, seed=$seed") {
      val rng = new Random(seed)
      val nLoc = 1 + rng.nextInt(150)
      val words = Bits.words(nLoc)
      val (rows, ranks) = randomAnchor(rng, nLoc, words)
      // candidates live in a prefix, so c may span fewer words than a row
      val prefix = 1 + rng.nextInt(nLoc)
      val cSet = (0 until prefix).filter(_ => rng.nextDouble() < 0.6).toSet
      val c = new Array[Long](Bits.words(prefix))
      cSet.foreach(Bits.set(c, _))
      for (r <- Seq(-1, rng.nextInt(30), rng.nextInt(100), 100)) {
        val rowsBefore = rows.clone()
        val got = BranchGraph.dropConsumed(c, store(rows, nLoc, words, ranks), r, new Array[Long](nLoc * words))
        assert(rows.sameElements(rowsBefore), "the input rows must not change")
        bruteDrop(rows, nLoc, words, cSet, ranks, r) match {
          case None => assert(got eq rows, s"r=$r: nothing consumed, want the rows themselves")
          case Some(want) =>
            assert(!(got eq rows), s"r=$r: pairs consumed, want a copy")
            assert(got.sameElements(want), s"r=$r: surviving rows differ")
        }
      }
    }

  test("dropConsumed returns the rows themselves when consumed pairs lie only outside C") {
    val nLoc = 70
    val words = Bits.words(nLoc)
    val rows = new Array[Long](nLoc * words)
    val ranks = new Array[Int](nLoc * nLoc)
    def link(a: Int, b: Int, r: Int): Unit = {
      Bits.setRow(rows, a * words, b); Bits.setRow(rows, b * words, a)
      ranks(a * nLoc + b) = r; ranks(b * nLoc + a) = r
    }
    link(0, 65, 9); link(1, 65, 1); link(0, 1, 2); link(1, 66, 50)
    val c = new Array[Long](words)
    Seq(0, 65, 66).foreach(Bits.set(c, _))
    val out = new Array[Long](nLoc * words)
    val stored = store(rows, nLoc, words, ranks)
    assert(BranchGraph.dropConsumed(c, stored, 8, out) eq rows)
    val got = BranchGraph.dropConsumed(c, stored, 9, out)
    assert(got eq out)
    assert(!Bits.getRow(got, 0, 65) && !Bits.getRow(got, 65 * words, 0))
    assert(Bits.isEmpty(got.slice(words, 2 * words)), "rows outside C are not copied")
  }

  test("pair keys round-trip ranks above 2^24 and sort by rank, then pair") {
    // a pair-list slot is an array index, so Int.MaxValue bounds it
    val last = Int.MaxValue
    val rank = (1 << 24) + 5
    // the rank fills the key's high half
    def rankOf(key: Long): Int = (key >>> 32).toInt
    val key = Kernels.pairKey(rank, last)
    assert(rankOf(key) == rank && Kernels.keyIndex(key) == last)
    val keys = Seq(
      Kernels.pairKey(1 << 23, 0),
      Kernels.pairKey((1 << 23) - 1, last),
      Kernels.pairKey(rank, 1),
      Kernels.pairKey(rank, 2),
      Kernels.pairKey(Int.MaxValue, last))
    assert(keys.sorted.map(rankOf) ==
      Seq((1 << 23) - 1, 1 << 23, rank, rank, Int.MaxValue))
    assert(keys.sorted.map(Kernels.keyIndex) == Seq(last, 0, 1, 2, last))
  }

  test("EBBMC counts t-plex branches that early termination cannot take") {
    val g = GraphGen.randomGnp(30, 0.5, 0)
    val (cliques, s) = Engine.collectLocal(g, MceConfig.ebbmc)
    assert(cliques == RefBK.enumerate(g))
    assert(s.etApplied > 0)
    assert(s.plexBranches > s.etApplied,
      s"b = ${s.plexBranches} should exceed b0 = ${s.etApplied}: a t-plex with X non-empty is a b")
  }

  test("#Calls, ET hits and cliques of the edge-depth and inner-variant configs are pinned") {
    val g = GraphGen.generate(GraphGen.DatasetConfig("T", "t", 400, 3, 25, 5, 12, 0, 271))
    // (#Calls, t-plex branches b, ET applications b0), all with 1,040
    // maximal cliques
    val want = Seq(
      "d=2" -> (MceConfig.hbbmcDepth(2), 4202L, 2112L, 157L),
      "d=3" -> (MceConfig.hbbmcDepth(3), 6193L, 2892L, 157L),
      "EBBMC" -> (MceConfig.ebbmc, 6611L, 2972L, 157L),
      "Ref++" -> (MceConfig.refPP, 2008L, 824L, 172L),
      "Rcd++" -> (MceConfig.rcdPP, 1864L, 783L, 133L),
      "Fac++" -> (MceConfig.facPP, 3400L, 1705L, 169L),
      "HBBMC++" -> (MceConfig.hbbmcPP, 2012L, 825L, 169L),
      "HBBMC+" -> (MceConfig.hbbmcP, 2275L, 0L, 0L),
      "RRef" -> (MceConfig.rRef, 1863L, 0L, 0L),
      "RDegen" -> (MceConfig.rDegen, 1865L, 0L, 0L),
      "RRcd" -> (MceConfig.rRcd, 1244L, 0L, 0L),
      "RFac" -> (MceConfig.rFac, 2406L, 0L, 0L),
      "VBBMC-dgn" -> (MceConfig.vbbmcDgn, 1257L, 389L, 244L),
      "HBBMC-dgn" -> (MceConfig.hbbmcDgn, 1981L, 763L, 169L),
      "HBBMC-mdg" -> (MceConfig.hbbmcMdg, 1959L, 755L, 179L))
    want.foreach { case (name, (cfg, calls, b, et)) =>
      val (cliques, s) = Engine.collectLocal(g, cfg)
      assert(cliques.size == 1040 && s.cliques == 1040, name)
      assert(s.calls == calls, s"$name #Calls")
      assert(s.plexBranches == b, s"$name t-plex branches")
      assert(s.etApplied == et, s"$name ET applications")
    }
  }

  test("HBBMC++ at edge depths 1, 2 and 3 and EBBMC emit RDegen's cliques on NA, each once") {
    // The rows in force inside C must hold exactly the unconsumed pairs.
    // Slips here repeat cliques: an edge step at level 2 or deeper that does
    // not clear its pair after its child (d=2 emits 45,191 duplicates), and
    // a vertex kernel that hands a clean child's full rows back to its
    // parent (HBBMC++), which the small differential graphs miss.
    val g = GraphGen.generate(GraphGen.byName("NA"))
    val (want, _) = Engine.collectLocal(g, MceConfig.rDegen)
    Seq("HBBMC++" -> MceConfig.hbbmcPP, "d=2" -> MceConfig.hbbmcDepth(2),
      "d=3" -> MceConfig.hbbmcDepth(3), "EBBMC" -> MceConfig.ebbmc)
      .foreach { case (name, cfg) =>
        val (got, s) = Engine.collectLocal(g, cfg)
        val duplicates = got.size - got.distinct.size
        assert(duplicates == 0, s"$name emitted $duplicates duplicate cliques")
        val extra = got.diff(want)
        val missing = want.diff(got)
        assert(extra.isEmpty && missing.isEmpty,
          s"$name: got ${got.size} cliques, want ${want.size}; extra ${extra.take(3)}, missing ${missing.take(3)}")
        assert(s.cliques == want.size.toLong, s"$name clique count")
      }
  }
}
