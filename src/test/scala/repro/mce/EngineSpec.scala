package repro.mce

import repro.{SparkSpec, TestGraphs}
import repro.dist.DistMCE
import repro.graph.{GraphGen, LocalGraph}

/** Engine-level behavior: counters, ET effectiveness, preset wiring. */
class EngineSpec extends SparkSpec {

  test("stats: clique count, sizes, and level-1 branch count") {
    val g = TestGraphs.moonMoser(3)
    val (cliques, stats) = Engine.collectLocal(g, MceConfig.hbbmcPP)
    assert(cliques.size == 27)
    assert(stats.cliques == 27)
    assert(stats.maxSize == 3)
    assert(stats.sumSize == 81)
  }

  test("ET reduces the number of recursive calls on clique-heavy graphs") {
    val cfg = GraphGen.DatasetConfig("T", "t", 500, 2, 40, 6, 14, 0, 5)
    val g = GraphGen.generate(cfg)
    val (_, withEt) = Engine.collectLocal(g, MceConfig.hbbmcPP)
    val (_, noEt) = Engine.collectLocal(g, MceConfig.hbbmcP)
    assert(withEt.cliques == noEt.cliques)
    assert(withEt.calls < noEt.calls,
      s"ET calls ${withEt.calls} should be < ${noEt.calls}")
    assert(withEt.etApplied > 0)
    assert(noEt.etApplied == 0)
  }

  test("#Calls grows monotonically with t decreasing (Table V trend)") {
    val cfg = GraphGen.DatasetConfig("T", "t", 400, 3, 30, 5, 12, 0, 6)
    val g = GraphGen.generate(cfg)
    val calls = (0 to 3).map(t => Engine.collectLocal(g, MceConfig.hbbmcT(t))._2.calls)
    assert(calls(1) <= calls(0))
    assert(calls(2) <= calls(1))
    assert(calls(3) <= calls(2))
  }

  test("ET ratio is between 0 and 1") {
    val cfg = GraphGen.DatasetConfig("T", "t", 300, 3, 25, 5, 10, 0, 7)
    val g = GraphGen.generate(cfg)
    val (_, s) = Engine.collectLocal(g, MceConfig.hbbmcPP)
    assert(s.plexBranches >= s.etApplied)
    assert(s.etApplied > 0)
  }

  test("deeper edge phases create more calls (Table IV trend)") {
    val cfg = GraphGen.DatasetConfig("T", "t", 300, 3, 20, 6, 10, 0, 8)
    val g = GraphGen.generate(cfg)
    val c1 = Engine.collectLocal(g, MceConfig.hbbmcDepth(1))._2
    val c2 = Engine.collectLocal(g, MceConfig.hbbmcDepth(2))._2
    val c3 = Engine.collectLocal(g, MceConfig.hbbmcDepth(3))._2
    assert(c1.cliques == c2.cliques && c2.cliques == c3.cliques)
    assert(c1.calls < c2.calls, s"${c1.calls} vs ${c2.calls}")
    assert(c2.calls <= c3.calls, s"${c2.calls} vs ${c3.calls}")
  }

  test("level-1 units: anchor groups covering all edges for HBBMC, vertices for VBBMC") {
    val g = GraphGen.randomGnp(40, 0.3, 9)
    val prepE = Engine.prepare(g, MceConfig.hbbmcPP)
    val m = prepE.reduced.m
    assert(m > 0)
    assert(prepE.anchorEdges.toSeq.sorted == (0 until m))
    assert(prepE.units == prepE.anchorVerts.length)
    assert(prepE.anchorOff.last == m)
    val prepV = Engine.prepare(g, MceConfig.rDegen)
    assert(prepV.units == prepV.reduced.n)
  }

  test("each reduced edge is anchored once, at its smaller-degree endpoint, in ascending order") {
    for (cfg <- GraphGen.paperSuite) {
      val prep = Engine.prepare(GraphGen.generate(cfg), MceConfig.hbbmcDgn)
      val r = prep.reduced
      val (verts, off, edges) = (prep.anchorVerts, prep.anchorOff, prep.anchorEdges)
      assert(edges.sorted.toSeq == (0 until r.m), cfg.name)
      assert(off.length == verts.length + 1 && off.head == 0 && off.last == r.m, cfg.name)
      assert(verts.indices.forall(i => off(i) < off(i + 1) && (i == 0 || verts(i - 1) < verts(i))),
        s"${cfg.name}: anchors do not ascend, or a group is empty")
      // (anchor, edge) pairs that break the rule, or an edge not above its predecessor
      val bad = verts.indices.iterator.flatMap { i =>
        val u = verts(i)
        (off(i) until off(i + 1)).iterator.filterNot { k =>
          val e = edges(k)
          val w = if (r.eu(e) == u) r.ev(e) else r.eu(e)
          (r.eu(e) == u || r.ev(e) == u) &&
            (r.degree(u) < r.degree(w) || (r.degree(u) == r.degree(w) && u < w)) &&
            (k == off(i) || edges(k - 1) < e)
        }.map(k => (u, edges(k)))
      }.take(3).toList
      assert(bad.isEmpty, s"${cfg.name}: misplaced (anchor, edge) pairs $bad")
    }
  }

  test("order bound is recorded (tau for truss)") {
    val g = GraphGen.randomGnp(50, 0.3, 11)
    val prep = Engine.prepare(g, MceConfig.hbbmcPP)
    assert(prep.orderBound == repro.graph.EdgeOrders.truss(prep.reduced).bound)
    // the other orderings and a vertex level 1 prove no bound
    for (cfg <- Seq(MceConfig.hbbmcDgn, MceConfig.hbbmcMdg, MceConfig.rDegen))
      assert(Engine.prepare(g, cfg).orderBound == Int.MaxValue, cfg)
  }

  test("every level-1 candidate set of HBBMC++ fits in the recorded order bound on the paper suite") {
    for (ds <- GraphGen.paperSuite) {
      val prep = Engine.prepare(GraphGen.generate(ds), MceConfig.hbbmcPP)
      val maxC = TestGraphs.maxLevel1C(prep)
      assert(maxC <= prep.orderBound, s"${ds.name}: a level-1 C holds $maxC vertices, tau = ${prep.orderBound}")
    }
  }

  test("a replay of every unit's branches through the public layers gives runLocal's statistics") {
    // The benchmark's traced pass replays the engine this way: one workspace
    // for every unit, each non-trivial branch solved from level 2, each
    // trivial one counted as one call. It walks an edge level 1 itself, one
    // public `new AnchorContext` per anchor; the other walk is
    // `foreachBranch`. The second graph has level-1 branches whose C holds a
    // consumed pair.
    val graphs = Seq("NA" -> GraphGen.generate(GraphGen.byName("NA")), "G(60, 0.5)" -> GraphGen.randomGnp(60, 0.5, 3))
    val configs = Seq("HBBMC++", "RDegen", "EBBMC", "HBBMC-dgn", "Fac++").map(n => n -> MceConfig.byName(n)) :+
      ("HBBMC d=2" -> MceConfig.hbbmcDepth(2))
    for ((gName, g) <- graphs; (cfgName, cfg) <- configs) {
      val prep = Engine.prepare(g, cfg)
      val local = Engine.runLocal(g, cfg, CliqueSink.discard)
      def replay(walk: (Workspace, BranchResult => Unit) => Unit): MceStats = {
        val counting = new CountingSink
        val counters = new Counters
        val sink = Engine.translatingSink(prep, counting)
        walk(Engine.workspace(prep), { branch =>
          counters.level1Branches += 1
          branch match {
            case BranchResult.Trivial(clique) =>
              counters.calls += 1
              if (clique != null) sink.emit(clique, clique.length)
            case BranchResult.Branch(bg, c, x, s) =>
              Kernels.solve(bg, c, x, s, 2, cfg.kernelConfig, counters, sink)
          }
        })
        Engine.emitDirect(prep, CliqueSink.discard).merge(counters.toStats(counting))
      }
      val walked = replay((ws, f) => for (unit <- 0 until prep.units) prep.foreachBranch(unit, ws)(f))
      assert(walked == local, s"$cfgName on $gName: replay $walked, runLocal $local")
      if (prep.edgeRank != null) {
        val anchored = replay { (ws, f) =>
          val r = prep.reduced
          for (unit <- 0 until prep.units) {
            val u = prep.anchorVerts(unit)
            val ctx = new AnchorContext(r, prep.edgeRank, u, cfg.edgeDepth >= 2, ws)
            val clue = s"$cfgName on $gName, anchor $u"
            assert(ctx.u == u, clue)
            assert(ctx.nLoc == prep.unitDegree(unit) && ctx.words == Bits.words(ctx.nLoc), clue)
            for (k <- prep.anchorOff(unit) until prep.anchorOff(unit + 1)) {
              val e = prep.anchorEdges(k)
              val v = if (r.eu(e) == u) r.ev(e) else r.eu(e)
              assert(ctx.localOf(v) < ctx.nLoc && ws.idsBuf(ctx.localOf(v)) == v, s"$clue, edge $e")
              f(ctx.branch(e))
            }
          }
        }
        assert(anchored == local, s"$cfgName on $gName: anchor replay $anchored, runLocal $local")
      }
    }
  }

  test("every named preset gives the closed-form counts of complete multipartite graphs") {
    // Moon–Moser at k = 8 and 11: 3^k cliques of size k; parts 1, 2, 3, 4,
    // 3, 2: 144 cliques of size 6
    val graphs = Seq("Moon–Moser k = 8" -> (Seq.fill(8)(3), 6561), "Moon–Moser k = 11" -> (Seq.fill(11)(3), 177147),
      "parts 1, 2, 3, 4, 3, 2" -> (Seq(1, 2, 3, 4, 3, 2), 144))
    val configs = MceConfig.named ++ Seq("d=2" -> MceConfig.hbbmcDepth(2), "d=3" -> MceConfig.hbbmcDepth(3))
    for ((gName, (sizes, count)) <- graphs; (cfgName, cfg) <- configs) {
      val s = Engine.runLocal(TestGraphs.completeMultipartite(sizes), cfg, CliqueSink.discard)
      assert((s.cliques, s.sumSize, s.maxSize) == (count.toLong, count.toLong * sizes.length, sizes.length),
        s"$cfgName on $gName: $s")
    }
  }

  test("presets match the paper's algorithm naming") {
    assert(MceConfig.hbbmcPP.etT == 3)
    assert(MceConfig.hbbmcP.etT == 0)
    assert(MceConfig.rDegen.level1 == Level1.VertexDegeneracy)
    assert(MceConfig.rDegen.inner == Kernels.Pivot)
    assert(MceConfig.rRcd.inner == Kernels.Rcd)
    assert(MceConfig.rFac.inner == Kernels.Fac)
    assert(MceConfig.rRef.inner == Kernels.Ref)
    assert(MceConfig.hbbmcDepth(3).edgeDepth == 3)
    assert(MceConfig.ebbmc.edgeDepth == Int.MaxValue)
  }

  test("configs by the paper's names, and an unknown name lists the known ones") {
    assert(MceConfig.byName("HBBMC++") == MceConfig.hbbmcPP)
    assert(MceConfig.byName("RRef") == MceConfig.rRef)
    assert(MceConfig.byName("EBBMC") == MceConfig.ebbmc)
    assert(MceConfig.named.map(_._1).distinct.size == MceConfig.named.size)
    val e = intercept[IllegalArgumentException](MceConfig.byName("hbbmcPP"))
    assert(e.getMessage.contains("HBBMC++") && e.getMessage.contains("EBBMC"))
  }

  test("a config builds its kernel config once, not per level-1 branch") {
    val cfg = MceConfig.hbbmcT(2)
    assert(cfg.kernelConfig eq cfg.kernelConfig)
    assert(cfg.kernelConfig == Kernels.KernelConfig(Kernels.Pivot, 2, 1))
  }

  test("an ET parameter outside 0..3 is rejected when the config is built") {
    // t = 4 admits complement degree 3, which early termination cannot walk
    val four = intercept[IllegalArgumentException](MceConfig.hbbmcT(4))
    assert(four.getMessage.contains("etT = 4"), four.getMessage)
    val minus = intercept[IllegalArgumentException](MceConfig.hbbmcPP.copy(etT = -1))
    assert(minus.getMessage.contains("etT = -1"), minus.getMessage)
  }

  test("an edge depth that vertex level-1 branches cannot use is rejected when the config is built") {
    val e = intercept[IllegalArgumentException](MceConfig.rDegen.copy(edgeDepth = 2))
    assert(e.getMessage.contains("edgeDepth = 2") && e.getMessage.contains("level1"), e.getMessage)
    assert(MceConfig.rDegen.copy(edgeDepth = 1).edgeDepth == 1)
  }

  /** Two hubs (0 and 1, adjacent) sharing `k` leaves, the leaves linked in
    * a cycle: minimum degree 4, so GR removes nothing, and the hub-hub edge
    * is anchored at a hub of degree k + 1.
    */
  private def twoHubs(k: Int): LocalGraph = {
    val leaves = 2 until k + 2
    val edges = (0, 1) +: leaves.flatMap(l => Seq((0, l), (1, l), (l, 2 + (l - 1) % k)))
    LocalGraph.fromEdges(k + 2, edges)
  }

  test("two-hub graph: HBBMC++ matches the reference") {
    val g = twoHubs(300)
    assert(Engine.collectLocal(g, MceConfig.hbbmcPP)._1 == RefBK.enumerate(g))
  }

  test("two-hub graph: RDegen matches the reference") {
    val g = twoHubs(300)
    assert(Engine.collectLocal(g, MceConfig.rDegen)._1 == RefBK.enumerate(g))
  }

  test("two-hub graph: vertex branches need no pair-rank matrix, so RDegen runs past the anchor limit") {
    // one clique {0, 1, l, l'} per cycle edge (l, l')
    assert(Engine.runLocal(twoHubs(47000), MceConfig.rDegen, new CountingSink).cliques == 47000)
  }

  test("two-hub graph: HBBMC++ runs an anchor of degree 47,001 and matches RDegen") {
    val g = twoHubs(47000)
    val hbbmc = Engine.runLocal(g, MceConfig.hbbmcPP, new CountingSink)
    val rdegen = Engine.runLocal(g, MceConfig.rDegen, new CountingSink)
    assert(hbbmc.cliques == 47000)
    assert((hbbmc.cliques, hbbmc.sumSize, hbbmc.maxSize) == (rdegen.cliques, rdegen.sumSize, rdegen.maxSize))
  }

  /** Bytes that `f` allocates on the calling thread. */
  private def allocatedBy(f: => Unit): Long = {
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    // the first reading of the counter allocates once
    threads.getCurrentThreadAllocatedBytes
    val a0 = threads.getCurrentThreadAllocatedBytes
    f
    threads.getCurrentThreadAllocatedBytes - a0
  }

  test("two-hub graph: an HBBMC++ workspace allocates less than four bit matrices of its largest anchor") {
    val prep = Engine.prepare(twoHubs(5000), MceConfig.hbbmcPP)
    val deg = (0 until prep.units).map(prep.unitDegree).max
    assert(deg == 5001)
    val hub = (0 until prep.units).find(prep.unitDegree(_) == deg).get
    val bitMatrix = deg.toLong * Bits.words(deg) * 8
    // the rank buffers are made on first use: measure a build of the hub's
    // anchor too, and the dropped rows, which its one branch does not touch
    val bytes = allocatedBy {
      val ws = Engine.workspace(prep)
      prep.foreachBranch(hub, ws)(_ => ())
      ws.survRows
    }
    assert(bytes < 4 * bitMatrix, s"$bytes bytes for a $bitMatrix-byte bit matrix")
  }

  test("two-hub graph: a hub whose bit matrix exceeds one array fails when its workspace is sized") {
    // deg·⌈deg/64⌉ longs pass Int.MaxValue from degree 370,704 on
    val g = twoHubs(371000)
    for (cfg <- Seq(MceConfig.hbbmcPP, MceConfig.rDegen)) {
      val prep = Engine.prepare(g, cfg)
      var e: IllegalArgumentException = null
      val bytes = allocatedBy { e = intercept[IllegalArgumentException](Engine.workspace(prep)) }
      assert(e.getMessage.contains("degree 371001"), s"$cfg: ${e.getMessage}")
      // no array of the workspace was made: not even its two n-int marks
      assert(bytes < 2L * 4 * g.n, s"$cfg: $bytes bytes allocated before the failure")
    }
  }

  test("two-hub graph: a stripe without the oversized anchor solves, its workspace sized from its own units") {
    val prep = Engine.prepare(twoHubs(47000), MceConfig.hbbmcPP)
    val stripe = (0 until prep.units).filter(u => prep.reduced.degree(prep.anchorVerts(u)) < 47001).toArray
    assert(stripe.length == prep.units - 1)
    val stats = Engine.solveUnits(prep, stripe, new CountingSink)
    assert(stats.level1Branches == prep.reduced.m - 1)
  }

  test("a triangle index too large for one array fails with a clear message") {
    // K_1700 has 817,388,900 triangles: 3T slots exceed Int.MaxValue
    val e = intercept[IllegalArgumentException](
      Engine.runLocal(LocalGraph.complete(1700), MceConfig.hbbmcPP, new CountingSink))
    assert(e.getMessage.contains("817388900"), e.getMessage)
  }

  test("a 2-clique of the reduced graph whose edge GR closed is dropped") {
    // Two K4s joined by the edge (0,4); vertex 8 sees only 0 and 4, so GR
    // emits {0,4,8} and closes (0,4), which is maximal in the reduced graph.
    val k4s = for (b <- Seq(0, 4); u <- b until b + 4; v <- (u + 1) until b + 4) yield (u, v)
    val g = TestGraphs.of(9, k4s ++ Seq((0, 4), (0, 8), (4, 8)): _*)
    val expected = RefBK.enumerate(g)
    assert(!expected.contains(Vector(0, 4)))
    assert(Engine.collectLocal(g, MceConfig.hbbmcPP)._1 == expected)
    assert(Engine.collectLocal(g, MceConfig.rDegen)._1 == expected)
    assert(DistMCE.runCollect(spark, g, MceConfig.hbbmcPP)._1 == expected)
  }

  test("the kernels recurse on a planted clique within a 1 MB thread stack") {
    // A Spark executor thread gets the JVM's default stack, not a -Xss flag.
    // Vertex kernels recurse once per clique vertex; edge branching without
    // ET is exponential in the clique size, so it gets a smaller clique.
    def planted(k: Int) = GraphGen.generate(GraphGen.DatasetConfig("P", "planted", 1000, 3, 1, k, k, 0, 12))
    val runs = Seq(500 -> Seq(MceConfig.rDegen, MceConfig.rRcd), 20 -> Seq(MceConfig.rDegen, MceConfig.ebbmcNoEt))
    var failure: Throwable = null
    val t = new Thread(null, () =>
      try for ((k, configs) <- runs) {
        val g = planted(k)
        val results = configs.map(Engine.collectLocal(g, _))
        assert(results.forall(_._1 == results.head._1), s"k = $k")
        assert(results.forall(_._2.maxSize == k), s"k = $k")
      } catch { case e: Throwable => failure = e }, "mce-1mb", 1L << 20)
    t.start()
    t.join()
    assert(failure == null, s"failed on a 1 MB stack: $failure")
  }
}
