package repro

import repro.graph.{ForwardLists, LocalGraph}
import repro.mce.{Bits, BranchGraph, BranchResult, Engine, Prepared, Workspace}

/** Small deterministic graphs and helpers shared across test suites. */
object TestGraphs {

  def of(n: Int, edges: (Int, Int)*): LocalGraph = LocalGraph.fromEdges(n, edges)

  /** Common neighbours of u and v in ascending order: u's neighbours that
    * are adjacent to v.
    */
  def commonNeighbors(g: LocalGraph, u: Int, v: Int): Array[Int] =
    g.neighbors(u).filter(g.hasEdge(v, _))

  /** The candidate-size bound an edge ordering achieves: for each edge e,
    * count the common neighbours w of its endpoints with both cross edges
    * ranked after e; take the max. That count is the |C| of e's level-1
    * branch, so for the truss ordering the max is τ.
    */
  def achievedBound(g: LocalGraph, rank: Array[Int]): Int = {
    var best = 0
    var e = 0
    while (e < g.m) {
      val u = g.eu(e); val v = g.ev(e)
      val r = rank(e)
      var c = 0
      // merge N(u) and N(v); a match w gives both cross edges' slots
      var i = g.offsets(u); var j = g.offsets(v)
      val ie = g.offsets(u + 1); val je = g.offsets(v + 1)
      while (i < ie && j < je) {
        val a = g.adj(i); val b = g.adj(j)
        if (a == b) {
          if (rank(g.adjEdge(i)) > r && rank(g.adjEdge(j)) > r) c += 1
          i += 1; j += 1
        } else if (a < b) i += 1
        else j += 1
      }
      best = math.max(best, c)
      e += 1
    }
    best
  }

  /** The largest |C| among the non-trivial level-1 branches of `prep`. */
  def maxLevel1C(prep: Prepared): Int = {
    val ws = Engine.workspace(prep)
    var max = 0
    for (unit <- 0 until prep.units) prep.foreachBranch(unit, ws) {
      case b: BranchResult.Branch => max = math.max(max, Bits.count(b.c))
      case _: BranchResult.Trivial =>
    }
    max
  }

  /** Path 0-1-2-...-(n-1). */
  def path(n: Int): LocalGraph = of(n, (0 until n - 1).map(i => (i, i + 1)): _*)

  /** Cycle on n vertices. */
  def cycle(n: Int): LocalGraph =
    of(n, (0 until n).map(i => (i, (i + 1) % n)): _*)

  /** Star with center 0. */
  def star(n: Int): LocalGraph = of(n, (1 until n).map(i => (0, i)): _*)

  /** Moon–Moser graph: complete multipartite with `parts` parts of size 3 —
    * has exactly 3^parts maximal cliques.
    */
  def moonMoser(parts: Int): LocalGraph = completeMultipartite(Seq.fill(parts)(3))

  /** Complete multipartite graph with parts of the given sizes, numbered
    * part by part: its maximal cliques take one vertex of each part, so
    * there are Π sizes of them, each of size |sizes|.
    */
  def completeMultipartite(sizes: Seq[Int]): LocalGraph = {
    val part = sizes.zipWithIndex.flatMap { case (size, p) => Seq.fill(size)(p) }
    val edges = for {
      u <- part.indices; v <- (u + 1) until part.length
      if part(u) != part(v)
    } yield (u, v)
    of(part.length, edges: _*)
  }

  /** Complete graph minus a perfect matching on 2k vertices (a 2-plex with
    * 2^k maximal cliques).
    */
  def cocktailParty(k: Int): LocalGraph = {
    val n = 2 * k
    val edges = for {
      u <- 0 until n; v <- (u + 1) until n
      if !(u / 2 == v / 2 && u % 2 == 0 && v == u + 1)
    } yield (u, v)
    of(n, edges: _*)
  }

  /** Complete graph on n vertices minus the edges of the complement graph
    * `removed` (given as pairs) — used to build arbitrary t-plexes.
    */
  def completeMinus(n: Int, removed: Seq[(Int, Int)]): LocalGraph = {
    val rem = removed.map { case (a, b) => (math.min(a, b), math.max(a, b)) }.toSet
    val edges = for {
      u <- 0 until n; v <- (u + 1) until n
      if !rem.contains((u, v))
    } yield (u, v)
    of(n, edges: _*)
  }

  /** Wrap a whole graph as a single BranchGraph with C = all vertices and
    * no consumed edges — the setting early termination operates in.
    */
  def asBranch(g: LocalGraph): (BranchGraph, Array[Long]) = {
    val words = Bits.words(math.max(1, g.n))
    val flat = new Array[Long](g.n * words)
    for (e <- 0 until g.m) {
      Bits.setRow(flat, g.eu(e) * words, g.ev(e))
      Bits.setRow(flat, g.ev(e) * words, g.eu(e))
    }
    val c = new Array[Long](words)
    (0 until g.n).foreach(Bits.set(c, _))
    (new BranchGraph(g.n, words, flat, flat, Array.tabulate(g.n)(identity), null, kernelWorkspace()), c)
  }

  /** A workspace for the kernels alone: it builds no neighborhood. */
  def kernelWorkspace(): Workspace =
    new Workspace(ForwardLists(LocalGraph.empty(1), Array(0)), 0)

  /** All maximal independent sets of the path graph v0-v1-...-v(L-1),
    * by brute force (L ≤ 20).
    */
  def bruteMisPath(l: Int): Vector[Vector[Int]] =
    bruteMis(l, (0 until l - 1).map(i => (i, i + 1)))

  /** All maximal independent sets of the cycle graph. */
  def bruteMisCycle(l: Int): Vector[Vector[Int]] =
    bruteMis(l, (0 until l).map(i => (i, (i + 1) % l)))

  private def bruteMis(n: Int, edges: Seq[(Int, Int)]): Vector[Vector[Int]] = {
    require(n <= 20)
    def independent(mask: Int): Boolean =
      edges.forall { case (a, b) => (mask & (1 << a)) == 0 || (mask & (1 << b)) == 0 }
    val ind = (0 until (1 << n)).filter(independent)
    // maximal = no independent strict superset
    val maximal = ind.filter { m =>
      !ind.exists(m2 => m2 != m && (m2 & m) == m)
    }
    maximal
      .map(m => (0 until n).filter(i => (m & (1 << i)) != 0).toVector)
      .sortBy(_.mkString(","))
      .toVector
  }
}
