package repro.mce

import repro.graph.{EdgeOrders, ForwardLists, LocalGraph, TrussOrder}

/** Which ordering drives level-1 edge branching (paper Table VI). */
sealed trait EdgeOrderKind extends Serializable
object EdgeOrderKind {
  case object Truss extends EdgeOrderKind    // HBBMC / HBBMC++ default
  case object DegenLex extends EdgeOrderKind // HBBMC-dgn
  case object MinDeg extends EdgeOrderKind   // HBBMC-mdg
}

/** How the initial search space is partitioned. */
sealed trait Level1 extends Serializable
object Level1 {
  /** BK_Degen-style split: one branch per vertex of the degeneracy order. */
  case object VertexDegeneracy extends Level1

  /** EBBMC/HBBMC split: one branch per edge of the chosen ordering. */
  final case class EdgeOrdered(kind: EdgeOrderKind) extends Level1
}

/** Full algorithm configuration. The paper's named algorithms are presets
  * in the companion object. Graph reduction (GR) always runs: every
  * configuration the paper evaluates, HBBMC++ and each R* baseline,
  * carries it.
  *
  * @param edgeDepth number of edge-oriented branching levels (the paper's d;
  *                  level-1 is depth 1). 0 for vertex-oriented level-1,
  *                  which takes at most 1.
  * @param etT       early-termination t-plex parameter t, 0 to 3 (0 = off)
  */
final case class MceConfig(
    level1: Level1,
    inner: Kernels.Variant = Kernels.Pivot,
    edgeDepth: Int = 1,
    etT: Int = 0
) extends Serializable {
  require(0 <= etT && etT <= 3, s"etT = $etT: early termination needs a t-plex with 0 <= t <= 3")
  require(edgeDepth <= 1 || level1.isInstanceOf[Level1.EdgeOrdered],
    s"edgeDepth = $edgeDepth needs an edge-ordered level1, not $level1: vertex branches carry " +
      "no pair ranks to branch on edges below level 1")
  val kernelConfig: Kernels.KernelConfig = Kernels.KernelConfig(inner, etT, edgeDepth)
}

object MceConfig {
  import Kernels._
  val hbbmcPP: MceConfig = MceConfig(Level1.EdgeOrdered(EdgeOrderKind.Truss), Pivot, 1, 3)
  val hbbmcP: MceConfig = hbbmcPP.copy(etT = 0)
  val rRef: MceConfig = MceConfig(Level1.VertexDegeneracy, Ref, 0, 0)
  val rDegen: MceConfig = MceConfig(Level1.VertexDegeneracy, Pivot, 0, 0)
  val rRcd: MceConfig = MceConfig(Level1.VertexDegeneracy, Rcd, 0, 0)
  val rFac: MceConfig = MceConfig(Level1.VertexDegeneracy, Fac, 0, 0)
  val refPP: MceConfig = hbbmcPP.copy(inner = Ref)
  val rcdPP: MceConfig = hbbmcPP.copy(inner = Rcd)
  val facPP: MceConfig = hbbmcPP.copy(inner = Fac)
  def hbbmcDepth(d: Int): MceConfig = hbbmcPP.copy(edgeDepth = d)
  def hbbmcT(t: Int): MceConfig = hbbmcPP.copy(etT = t)
  val vbbmcDgn: MceConfig = MceConfig(Level1.VertexDegeneracy, Pivot, 0, 3)
  val hbbmcDgn: MceConfig = hbbmcPP.copy(level1 = Level1.EdgeOrdered(EdgeOrderKind.DegenLex))
  val hbbmcMdg: MceConfig = hbbmcPP.copy(level1 = Level1.EdgeOrdered(EdgeOrderKind.MinDeg))
  /** Pure EBBMC: edge-oriented branching all the way down, with ET. */
  val ebbmc: MceConfig = hbbmcPP.copy(edgeDepth = Int.MaxValue)
  val ebbmcNoEt: MceConfig = ebbmc.copy(etT = 0)

  /** The presets under the names the paper's tables use. */
  val named: Seq[(String, MceConfig)] = Seq(
    "HBBMC++" -> hbbmcPP, "HBBMC+" -> hbbmcP, "RRef" -> rRef, "RDegen" -> rDegen,
    "RRcd" -> rRcd, "RFac" -> rFac, "Ref++" -> refPP, "Rcd++" -> rcdPP, "Fac++" -> facPP,
    "VBBMC-dgn" -> vbbmcDgn, "HBBMC-dgn" -> hbbmcDgn, "HBBMC-mdg" -> hbbmcMdg, "EBBMC" -> ebbmc)

  def byName(name: String): MceConfig =
    named.find(_._1 == name).map(_._2).getOrElse(throw new IllegalArgumentException(
      s"unknown config $name; known: ${named.map(_._1).mkString(", ")}"))
}

/** Precomputed, broadcast-able state of one enumeration: the reduced
  * graph with GR's closed edges and its degeneracy-forward lists, orderings,
  * and the cliques GR emitted directly; [[foreachBranch]] is the one walk
  * from its level-1 units to their branches.
  */
final class Prepared(
    val reduced: LocalGraph,
    val oldId: Array[Int],
    val closed: Array[Boolean], // per reduced edge: GR's closed flag
    val cfg: MceConfig,
    val edgeRank: Array[Int], // null unless level-1 is edge-ordered
    // τ from the truss peel: no level-1 C holds more vertices. Int.MaxValue
    // (no bound proven) for the other orderings and a vertex level 1.
    val orderBound: Int,
    val degenPos: Array[Int], // null unless level-1 is vertex-oriented
    val forward: ForwardLists, // of `reduced`; every level-1 neighborhood is built from them
    val directCliques: Array[Array[Int]], // original ids, from GR
    // Edge-ordered level-1 branches grouped by anchor vertex (CSR):
    // anchorVerts(i) anchors edges anchorEdges(anchorOff(i) until anchorOff(i+1)).
    val anchorVerts: Array[Int],
    val anchorOff: Array[Int],
    val anchorEdges: Array[Int]
) extends Serializable {
  /** Number of schedulable level-1 units (anchor groups for edge mode). */
  def units: Int = cfg.level1 match {
    case Level1.VertexDegeneracy => reduced.n
    case _: Level1.EdgeOrdered   => anchorVerts.length
  }

  /** The degree a workspace must hold for `unit`: its anchor's or vertex's. */
  def unitDegree(unit: Int): Int = cfg.level1 match {
    case Level1.VertexDegeneracy => reduced.degree(unit)
    case _: Level1.EdgeOrdered   => reduced.degree(anchorVerts(unit))
  }

  /** Build `unit`'s level-1 branches on `ws` in order and hand each to `f`,
    * during which alone it is valid: one `forVertexBranch` for a vertex unit,
    * one `AnchorContext.branch` per anchored edge for an anchor unit, on the
    * workspace's one context. After a warm-up the walk allocates nothing.
    */
  def foreachBranch(unit: Int, ws: Workspace)(f: BranchResult => Unit): Unit = cfg.level1 match {
    case Level1.VertexDegeneracy =>
      f(BranchGraph.forVertexBranch(reduced, degenPos, unit, ws))
    case _: Level1.EdgeOrdered =>
      val ctx = ws.anchor.at(reduced, edgeRank, anchorVerts(unit), cfg.edgeDepth >= 2)
      var k = anchorOff(unit)
      while (k < anchorOff(unit + 1)) { f(ctx.branch(anchorEdges(k))); k += 1 }
  }
}

/** Preparation (GR + orderings) and the level-1 unit runner. `runLocal`
  * solves all units in order on the calling thread (this is what the benches
  * time, matching the paper's sequential C++); `repro.dist.DistMCE` runs the
  * same [[Engine.solveUnits]] on Spark partitions of the units.
  */
object Engine {

  def prepare(g: LocalGraph, cfg: MceConfig): Prepared = {
    val direct = new CollectSink
    val gr = GraphReduction.reduce(g, direct)
    val reduced = gr.reduced
    val degen = gr.degeneracy
    val forward = ForwardLists(reduced, degen.pos)
    var edgeRank: Array[Int] = null
    var bound = Int.MaxValue
    var degenPos: Array[Int] = null
    var anchorVerts: Array[Int] = Array.emptyIntArray
    var anchorOff: Array[Int] = Array.emptyIntArray
    var anchorEdges: Array[Int] = Array.emptyIntArray
    cfg.level1 match {
      case Level1.VertexDegeneracy =>
        degenPos = degen.pos
      case Level1.EdgeOrdered(kind) =>
        edgeRank = kind match {
          case EdgeOrderKind.Truss =>
            val truss = TrussOrder.compute(forward)
            bound = truss.bound
            truss.rank
          case EdgeOrderKind.DegenLex => EdgeOrders.degeneracyLex(reduced, degen)
          case EdgeOrderKind.MinDeg   => EdgeOrders.minDegree(reduced)
        }
        // Group the edge branches by an anchor endpoint (the smaller-degree
        // one, the smaller id on a tie) so the anchor's neighborhood
        // structures are built once per vertex. A vertex's adjacency slots
        // ascend by neighbour id and so by edge id: one pass over the CSR
        // lists each anchor's edges in ascending id.
        val verts = new Array[Int](reduced.n)
        val off = new Array[Int](reduced.n + 1)
        anchorEdges = new Array[Int](reduced.m)
        var groups = 0
        var k = 0
        var u = 0
        while (u < reduced.n) {
          val du = reduced.degree(u)
          var p = reduced.offsets(u)
          while (p < reduced.offsets(u + 1)) {
            val w = reduced.adj(p)
            val dw = reduced.degree(w)
            if (du < dw || (du == dw && u < w)) { anchorEdges(k) = reduced.adjEdge(p); k += 1 }
            p += 1
          }
          if (k > off(groups)) { verts(groups) = u; groups += 1; off(groups) = k }
          u += 1
        }
        anchorVerts = java.util.Arrays.copyOf(verts, groups)
        anchorOff = java.util.Arrays.copyOf(off, groups + 1)
    }
    new Prepared(reduced, gr.oldId, gr.closed, cfg, edgeRank, bound, degenPos, forward,
      direct.cliques.toArray, anchorVerts, anchorOff, anchorEdges)
  }

  /** Wrap a raw sink so that reduced ids are mapped back to original ids;
    * create once per run or per Spark partition (it owns a reusable buffer).
    */
  def translatingSink(prep: Prepared, sink: CliqueSink): CliqueSink =
    new TranslateFilterSink(prep, sink)

  /** The construction and kernel scratch for every unit of `prep`. */
  def workspace(prep: Prepared): Workspace = workspace(prep, Array.range(0, prep.units))

  /** The scratch for solving `units`: its neighborhood matrices are sized
    * once, for the largest `unitDegree` among them, so a stripe without a
    * hub allocates no hub-sized matrix.
    */
  private def workspace(prep: Prepared, units: Array[Int]): Workspace = {
    var maxDegree = 0
    var i = 0
    while (i < units.length) { maxDegree = math.max(maxDegree, prep.unitDegree(units(i))); i += 1 }
    new Workspace(prep.forward, maxDegree)
  }

  /** Solve the level-1 `units` of `prep` in order on the calling thread,
    * emitting their cliques (original ids) to `sink`. This is the one runner
    * behind `runLocal` and every Spark partition of `repro.dist.DistMCE`,
    * over `Prepared.foreachBranch`: a trivial branch is one call, the others
    * run the kernels from level 2. The returned statistics exclude the
    * direct cliques (see [[emitDirect]]).
    */
  def solveUnits(prep: Prepared, units: Array[Int], sink: CliqueSink): MceStats = {
    val counting = new CountingSink
    val counters = new Counters
    val translated = translatingSink(prep, new TeeSink(counting, sink))
    val ws = workspace(prep, units)
    val solve = (branch: BranchResult) => {
      counters.level1Branches += 1
      branch match {
        case BranchResult.Trivial(emit) =>
          counters.calls += 1
          if (emit != null) translated.emit(emit, emit.length)
        case BranchResult.Branch(bg, c, x, s) =>
          Kernels.solve(bg, c, x, s, level = 2, prep.cfg.kernelConfig, counters, translated)
      }
    }
    var i = 0
    while (i < units.length) {
      prep.foreachBranch(units(i), ws)(solve)
      i += 1
    }
    counters.toStats(counting)
  }

  /** Run the whole enumeration sequentially. */
  def runLocal(g: LocalGraph, cfg: MceConfig, sink: CliqueSink): MceStats = {
    val prep = prepare(g, cfg)
    emitDirect(prep, sink).merge(solveUnits(prep, Array.range(0, prep.units), sink))
  }

  /** Convenience: run and collect all cliques (original ids, sorted). */
  def collectLocal(g: LocalGraph, cfg: MceConfig): (Vector[Vector[Int]], MceStats) = {
    val collect = new CollectSink
    val stats = runLocal(g, cfg, collect)
    (RefBK.canon(collect.cliques), stats)
  }

  /** Emit the cliques that GR found directly and return their statistics. */
  def emitDirect(prep: Prepared, sink: CliqueSink): MceStats = {
    val counting = new CountingSink
    var i = 0
    while (i < prep.directCliques.length) {
      val c = prep.directCliques(i)
      counting.emit(c, c.length)
      sink.emit(c, c.length)
      i += 1
    }
    MceStats(counting.count, counting.sumSize, counting.maxSize, 0L, 0L, 0L, 0L)
  }
}

/** Maps reduced-graph ids back to original ids and drops the (rare)
  * 2-cliques whose edge GR closed: a removed vertex is adjacent to both, so
  * they are not maximal in the original graph. No other emission is: a
  * removed vertex has at most two later neighbours, and the reduced graph,
  * a 3-core, has no isolated vertex (see DESIGN.md §4).
  */
final class TranslateFilterSink(prep: Prepared, inner: CliqueSink) extends CliqueSink {
  private val tmp = new Array[Int](prep.reduced.n + 8)
  override def emit(vertices: Array[Int], len: Int): Unit = {
    if (len == 2 && prep.closed(prep.reduced.edgeId(vertices(0), vertices(1)))) return
    var i = 0
    while (i < len) { tmp(i) = prep.oldId(vertices(i)); i += 1 }
    inner.emit(tmp, len)
  }
}
