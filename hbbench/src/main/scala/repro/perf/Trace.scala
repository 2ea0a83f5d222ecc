package repro.perf

import repro.graph.{Degeneracy, EdgeOrders}
import repro.mce._

/** One measured value of a traced pass. */
final case class Metric(name: String, unit: String, value: Double)

/** Per-layer tracing of the sequential engine, recorded from the benchmark's
  * own code around the calls into each layer's public functions.
  *
  * [[pass]] replays `Engine.runLocal` step by step (prepare, then every
  * level-1 unit through `AnchorContext` / `BranchGraph.forVertexBranch` and
  * `Kernels.solve`), so it explores the same search tree and must report the
  * same clique count and `#Calls`. [[probe]] times the layers that
  * `Engine.prepare` hides (GR, truss and degeneracy orderings) by calling
  * them on their own; that time is not part of the traced pass.
  */
object Trace {

  private def seconds(ns: Long): Double = ns / 1e9
  private def mb(bytes: Double): Double = bytes / 1e6
  private def ratio(a: Double, b: Double): Double = if (b == 0) 0.0 else a / b

  /** Layer sums of one traced pass of one configuration over a workload. */
  final class Layers(val config: String) {
    var totalNs, prepareNs, anchorNs, branchNs, kernelNs, emitNs, kernelAlloc = 0L
    var units, anchors, level1, trivial, kernelCalls, cOverBound = 0L
    var plex, applied, cliques, rowsRead, rowsBuilt = 0L
    var nLocMax, cMax = 0
    var matrixBytes = 0.0

    def metrics: Seq[Metric] = {
      val p = config
      val common = Seq(
        Metric(s"$p.prepare.s", "s", seconds(prepareNs)),
        Metric(s"$p.prepare.units", "count", units.toDouble),
        Metric(s"$p.branch.s", "s", seconds(branchNs)),
        Metric(s"$p.branch.level1", "count", level1.toDouble),
        Metric(s"$p.branch.trivial", "count", trivial.toDouble),
        Metric(s"$p.branch.c_max", "count", cMax.toDouble),
        Metric(s"$p.kernel.s", "s", seconds(kernelNs)),
        Metric(s"$p.kernel.calls", "count", kernelCalls.toDouble),
        Metric(s"$p.kernel.ns_per_call", "ns", ratio(kernelNs.toDouble, kernelCalls.toDouble)),
        Metric(s"$p.kernel.alloc_mb", "MB", mb(kernelAlloc.toDouble)),
        Metric(s"$p.emit.cliques", "count", cliques.toDouble),
        Metric(s"$p.emit.s", "s", seconds(emitNs)),
      )
      val edgeOnly =
        if (anchors == 0) Seq.empty
        else Seq(
          Metric(s"$p.anchor.s", "s", seconds(anchorNs)),
          Metric(s"$p.anchor.count", "count", anchors.toDouble),
          Metric(s"$p.anchor.nloc_max", "count", nLocMax.toDouble),
          Metric(s"$p.anchor.matrix_mb", "MB-computed", mb(matrixBytes)),
          Metric(s"$p.anchor.rows_read_frac", "ratio", ratio(rowsRead.toDouble, rowsBuilt.toDouble)),
          Metric(s"$p.branch.c_over_bound", "count", cOverBound.toDouble),
          Metric(s"$p.et.plex_branches", "count", plex.toDouble),
          Metric(s"$p.et.applied", "count", applied.toDouble),
          Metric(s"$p.et.ratio", "ratio", ratio(applied.toDouble, plex.toDouble)),
        )
      common ++ edgeOnly
    }
  }

  /** Times the kernel's clique emissions: id translation, GR filtering and
    * counting, behind the same `TranslateFilterSink` that `runLocal` uses.
    */
  private final class TimedSink(inner: CliqueSink, layers: Layers) extends CliqueSink {
    override def emit(vertices: Array[Int], len: Int): Unit = {
      val t0 = System.nanoTime()
      inner.emit(vertices, len)
      layers.emitNs += System.nanoTime() - t0
    }
  }

  /** One traced pass of `cfg` over `inputs`; returns the per-graph counts. */
  def pass(inputs: Seq[Workloads.Input], cfg: MceConfig, layers: Layers): Seq[Passes.Outcome] = {
    System.gc()
    val t0 = System.nanoTime()
    val outcomes = inputs.map(in => run(in, cfg, layers))
    layers.totalNs += System.nanoTime() - t0
    outcomes
  }

  private def run(in: Workloads.Input, cfg: MceConfig, l: Layers): Passes.Outcome = {
    val t0 = System.nanoTime()
    val prep = Engine.prepare(in.graph, cfg)
    l.prepareNs += System.nanoTime() - t0
    l.units += prep.units
    val counting = new CountingSink
    val counters = new Counters
    Engine.emitDirect(prep, counting)
    val sink = new TimedSink(Engine.translatingSink(prep, counting), l)
    val ws = Engine.workspace(prep)
    val kernelCfg = cfg.kernelConfig
    val bound = if (prep.edgeRank != null) prep.orderBound else Int.MaxValue

    def dispatch(result: BranchResult): Unit = result match {
      case BranchResult.Trivial(clique) =>
        l.trivial += 1
        counters.calls += 1
        if (clique != null) sink.emit(clique, clique.length)
      case BranchResult.Branch(bg, c, x, s) =>
        val size = Bits.count(c)
        if (size > l.cMax) l.cMax = size
        if (size > bound) l.cOverBound += 1
        val calls0 = counters.calls
        val a0 = Passes.allocated()
        val k0 = System.nanoTime()
        Kernels.solve(bg, c, x, s, 2, kernelCfg, counters, sink)
        l.kernelNs += System.nanoTime() - k0
        l.kernelAlloc += Passes.allocated() - a0
        l.kernelCalls += counters.calls - calls0
    }

    val g = prep.reduced
    var unit = 0
    while (unit < prep.units) {
      if (prep.edgeRank == null) {
        counters.level1Branches += 1
        val b0 = System.nanoTime()
        val result = BranchGraph.forVertexBranch(g, prep.degenPos, unit, ws)
        l.branchNs += System.nanoTime() - b0
        dispatch(result)
      } else {
        val a0 = System.nanoTime()
        val ctx = new AnchorContext(g, prep.edgeRank, prep.anchorVerts(unit), cfg.edgeDepth >= 2, ws)
        l.anchorNs += System.nanoTime() - a0
        l.anchors += 1
        l.nLocMax = math.max(l.nLocMax, ctx.nLoc)
        l.matrixBytes += ctx.nLoc.toDouble * ctx.nLoc * 4 + ctx.nLoc.toDouble * ctx.words * 8
        // Branch (u, v) reads H's row of v and the candidate rows before it.
        var prefix = 0
        var k = prep.anchorOff(unit)
        while (k < prep.anchorOff(unit + 1)) {
          val e = prep.anchorEdges(k)
          val v = if (g.eu(e) == ctx.u) g.ev(e) else g.eu(e)
          prefix = math.max(prefix, ctx.localOf(v) + 1)
          counters.level1Branches += 1
          val b0 = System.nanoTime()
          val result = ctx.branch(e)
          l.branchNs += System.nanoTime() - b0
          dispatch(result)
          k += 1
        }
        l.rowsRead += prefix
        l.rowsBuilt += ctx.nLoc
      }
      unit += 1
    }
    l.level1 += counters.level1Branches
    l.plex += counters.plexBranches
    l.applied += counters.etApplied
    l.cliques += counting.count
    Passes.Outcome(counting.count, counters.calls)
  }

  /** Times GR, the truss ordering and the degeneracy ordering on their own,
    * as `Engine.prepare` calls them.
    */
  def probe(inputs: Seq[Workloads.Input]): Seq[Metric] = {
    var grNs, trussNs, degenNs, trussAlloc = 0L
    var removedN, removedM, direct = 0L
    var tau, delta = 0
    inputs.foreach { in =>
      val sink = new CollectSink
      val t0 = System.nanoTime()
      val gr = GraphReduction.reduce(in.graph, sink)
      val t1 = System.nanoTime()
      grNs += t1 - t0
      removedN += in.graph.n - gr.reduced.n
      removedM += in.graph.m - gr.reduced.m
      direct += sink.cliques.length
      val a0 = Passes.allocated()
      val t2 = System.nanoTime()
      val truss = EdgeOrders.truss(gr.reduced)
      val t3 = System.nanoTime()
      trussNs += t3 - t2
      trussAlloc += Passes.allocated() - a0
      tau = math.max(tau, truss.bound)
      val d = Degeneracy.compute(gr.reduced)
      degenNs += System.nanoTime() - t3
      delta = math.max(delta, d.delta)
    }
    Seq(
      Metric("gr.s", "s", seconds(grNs)),
      Metric("gr.removed_n", "count", removedN.toDouble),
      Metric("gr.removed_m", "count", removedM.toDouble),
      Metric("gr.direct_cliques", "count", direct.toDouble),
      Metric("hbbmcpp.truss.s", "s", seconds(trussNs)),
      Metric("hbbmcpp.truss.tau", "count", tau.toDouble),
      Metric("hbbmcpp.truss.alloc_mb", "MB", mb(trussAlloc.toDouble)),
      Metric("rdegen.degen.s", "s", seconds(degenNs)),
      Metric("rdegen.degen.delta", "count", delta.toDouble),
    )
  }
}
