package repro.mce

import repro.{SparkSpec, TestGraphs}
import repro.graph.GraphGen
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The kernels reuse one `Solver` per workspace: branches of any widths,
  * early-termination hits and edge steps below level 1 solve on a shared
  * workspace exactly as on a fresh one, and in steady state they allocate
  * nothing. Every level-1 branch is the workspace's one record over its one
  * graph, and after a warm-up the whole level-1 walk allocates nothing.
  */
class SolverReuseSpec extends SparkSpec {
  import SolverReuseSpec._

  private def detach(r: BranchResult.Branch, cfg: Kernels.KernelConfig, ws: Workspace): Item = {
    val bg = r.bg
    val full = bg.fullFlat.clone()
    val surv = if (bg.survFlat eq bg.fullFlat) full else bg.survFlat.clone()
    val r0 = bg.localRank
    val ranks = if (r0 == null) null else new PairRanks(full, r0.words, r0.base.clone(), r0.rank.clone())
    Item(new BranchGraph(bg.nLoc, bg.words, surv, full, bg.globalIds.clone(), ranks, ws),
      r.c.clone(), r.x.clone(), r.s.clone(), cfg)
  }

  /** Every non-trivial level-1 branch of `cfg` on `g`, detached. */
  private def branches(g: repro.graph.LocalGraph, cfg: MceConfig): Seq[Item] = {
    val prep = Engine.prepare(g, cfg)
    val ws = Engine.workspace(prep)
    val out = ArrayBuffer.empty[Item]
    for (unit <- 0 until prep.units) prep.foreachBranch(unit, ws) {
      case b: BranchResult.Branch => out += detach(b, cfg.kernelConfig, ws)
      case _: BranchResult.Trivial =>
    }
    out.toSeq
  }

  /** Branches of several C and X widths, with ET hits, vertex branches and
    * d = 2 edge steps, in an order that changes width from one to the next.
    */
  private lazy val items: Seq[Item] = {
    val small = GraphGen.generate(GraphGen.DatasetConfig("T", "t", 400, 3, 25, 5, 12, 0, 271))
    def chain(vs: Int*): Seq[(Int, Int)] = vs.zip(vs.tail)
    val near = TestGraphs.completeMinus(142,
      chain(60, 66, 63, 64, 61, 67) ++ chain(0, 70, 140, 5, 0) ++ Seq((40, 141), (10, 75), (20, 131)))
    def pick(all: Seq[Item], n: Int): Seq[Item] =
      all.groupBy(i => (i.c.length, i.x.length)).toSeq.sortBy(_._1)
        .flatMap { case (_, group) => group.sortBy(i => -Bits.count(i.c)).take(n) }
    val chosen = pick(branches(small, MceConfig.hbbmcPP), 4) ++ pick(branches(small, MceConfig.rDegen), 4) ++
      pick(branches(small, MceConfig.hbbmcDepth(2)), 4) ++ pick(branches(small, MceConfig.rRcd), 2) ++
      pick(branches(near, MceConfig.hbbmcPP), 2) ++ pick(branches(near, MceConfig.facPP), 1)
    new Random(5).shuffle(chosen)
  }

  private def solveOn(item: Item): Outcome = {
    val sink = new CollectSink
    val counters = new Counters
    Kernels.solve(item.bg, item.c.clone(), item.x.clone(), item.s, 2, item.cfg, counters, sink)
    Outcome(RefBK.canon(sink.cliques), counters.calls, counters.plexBranches, counters.etApplied)
  }

  test("the chosen branches span several widths, ET hits, vertex branches and d = 2 edge steps") {
    assert(items.map(_.c.length).distinct.size >= 2, items.map(_.c.length))
    assert(items.map(_.x.length).distinct.size >= 2, items.map(_.x.length))
    assert(items.exists(_.cfg.edgeDepth == 2) && items.exists(_.bg.localRank == null))
    assert(items.map(i => solveOn(i.on(TestGraphs.kernelWorkspace())).et).sum > 0)
  }

  test("interleaved on one workspace, each branch gives the cliques and #Calls of a fresh workspace") {
    val shared = TestGraphs.kernelWorkspace()
    for ((item, k) <- items.zipWithIndex) {
      val fresh = solveOn(item.on(TestGraphs.kernelWorkspace()))
      assert(fresh.calls > 0)
      assert(solveOn(item.on(shared)) == fresh, s"branch $k")
    }
  }

  test("an anchor's branches all run on the workspace's one graph, over H or over the surviving rows") {
    // a level-1 C rarely holds a consumed pair; in this graph two do (truss order)
    val g = GraphGen.randomGnp(60, 0.5, 3)
    var clean, dropped = 0
    for (cfg <- Seq(MceConfig.hbbmcPP, MceConfig.hbbmcDgn)) {
      val prep = Engine.prepare(g, cfg)
      val ws = Engine.workspace(prep)
      for (unit <- 0 until prep.units) {
        val rows = ArrayBuffer.empty[Array[Long]]
        prep.foreachBranch(unit, ws) {
          case b: BranchResult.Branch =>
            assert((b.bg eq ws.graph) && (b.bg.fullFlat eq ws.hFlat), s"$cfg anchor $unit")
            rows += b.bg.survFlat
          case _: BranchResult.Trivial =>
        }
        val (overH, overSurv) = rows.partition(_ eq ws.hFlat)
        assert(overSurv.forall(_ eq ws.survRows), s"$cfg anchor $unit")
        clean += overH.size; dropped += overSurv.size
      }
    }
    assert(clean > 0 && dropped > 0, s"$clean clean and $dropped dropped branches")
  }

  test("every level-1 branch, edge or vertex, is the workspace's one record over its one graph") {
    val g = GraphGen.randomGnp(60, 0.5, 3)
    for (cfg <- Seq(MceConfig.hbbmcPP, MceConfig.hbbmcDepth(2), MceConfig.hbbmcDgn, MceConfig.rDegen)) {
      val prep = Engine.prepare(g, cfg)
      val ws = Engine.workspace(prep)
      var branches = 0
      for (unit <- 0 until prep.units) prep.foreachBranch(unit, ws) {
        case b: BranchResult.Branch =>
          branches += 1
          assert((b eq ws.branch) && (b.bg eq ws.graph), s"$cfg unit $unit")
          // rows in force: H, or an edge branch's rows with its consumed pairs dropped
          assert((b.bg.survFlat eq ws.hFlat) || (prep.edgeRank != null && (b.bg.survFlat eq ws.survRows)),
            s"$cfg unit $unit")
          // set for this unit, with ranks exactly when edges branch below level 1
          assert(b.bg.nLoc == prep.unitDegree(unit) && b.bg.words == Bits.words(b.bg.nLoc), s"$cfg unit $unit")
          assert((b.bg.localRank != null) == (cfg.edgeDepth >= 2), s"$cfg unit $unit")
        case _: BranchResult.Trivial =>
      }
      assert(branches > 0, cfg)
    }
  }

  test("after a warm-up, walking every level-1 unit on one workspace allocates nothing") {
    val g = GraphGen.generate(GraphGen.byName("NA"))
    for (cfg <- Seq(MceConfig.hbbmcPP, MceConfig.rDegen, MceConfig.hbbmcDepth(2))) {
      val prep = Engine.prepare(g, cfg)
      val ws = Engine.workspace(prep)
      val kernelCfg = cfg.kernelConfig
      val sink = new CountingSink
      val counters = new Counters
      val solve = (branch: BranchResult) => branch match {
        case BranchResult.Trivial(emit) =>
          counters.calls += 1
          if (emit != null) sink.emit(emit, emit.length)
        case BranchResult.Branch(bg, c, x, s) =>
          Kernels.solve(bg, c, x, s, 2, kernelCfg, counters, sink)
      }
      def walk(): Unit = {
        var unit = 0
        while (unit < prep.units) { prep.foreachBranch(unit, ws)(solve); unit += 1 }
      }
      walk(); walk()
      threads.getCurrentThreadAllocatedBytes
      val calls0 = counters.calls
      val a0 = threads.getCurrentThreadAllocatedBytes
      walk()
      val alloc = threads.getCurrentThreadAllocatedBytes - a0
      val calls = counters.calls - calls0
      assert(calls == Engine.runLocal(g, cfg, CliqueSink.discard).calls, cfg)
      // the counter's own reading takes a few hundred bytes
      assert(alloc < 1024, s"$cfg: a walk of ${prep.units} units and $calls calls allocated $alloc bytes")
    }
  }

  test("after a warm-up, repeated solves on one workspace allocate nothing") {
    val ws = TestGraphs.kernelWorkspace()
    val shared = items.map(_.on(ws)).toArray
    val cs = shared.map(_.c.clone())
    val xs = shared.map(_.x.clone())
    val sink = new CountingSink
    val counters = new Counters
    def round(): Unit = {
      var k = 0
      while (k < shared.length) {
        val it = shared(k)
        System.arraycopy(it.c, 0, cs(k), 0, it.c.length)
        System.arraycopy(it.x, 0, xs(k), 0, it.x.length)
        Kernels.solve(it.bg, cs(k), xs(k), it.s, 2, it.cfg, counters, sink)
        k += 1
      }
    }
    var r = 0
    while (r < 3) { round(); r += 1 }
    // the first reading of the counter allocates once, so read it in the warm-up
    threads.getCurrentThreadAllocatedBytes
    val calls0 = counters.calls
    val a0 = threads.getCurrentThreadAllocatedBytes
    r = 0
    while (r < 50) { round(); r += 1 }
    val alloc = threads.getCurrentThreadAllocatedBytes - a0
    val calls = counters.calls - calls0
    assert(calls > 10000, s"$calls kernel calls")
    // the counter's own reading takes a few hundred bytes
    assert(alloc < 1024, s"$calls kernel calls allocated $alloc bytes")
  }
}

object SolverReuseSpec {

  private val threads = java.lang.management.ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  /** A level-1 branch that owns copies of every array it reads, so it can be
    * solved again and again, on any workspace.
    */
  private final case class Item(bg: BranchGraph, c: Array[Long], x: Array[Long], s: Array[Int],
                                cfg: Kernels.KernelConfig) {
    def on(ws: Workspace): Item = copy(bg = new BranchGraph(bg.nLoc, bg.words, bg.survFlat, bg.fullFlat,
      bg.globalIds, bg.localRank, ws))
  }

  private final case class Outcome(cliques: Vector[Vector[Int]], calls: Long, plex: Long, et: Long)
}
