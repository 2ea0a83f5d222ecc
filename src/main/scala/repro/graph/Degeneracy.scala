package repro.graph

/** Result of degeneracy (k-core) peeling.
  *
  * @param order    vertices in degeneracy order (peeled first → last)
  * @param pos      position of each vertex in `order` (inverse permutation)
  * @param coreness core number of each vertex
  * @param delta    the degeneracy δ = max coreness
  */
final case class DegeneracyResult(
    order: Array[Int],
    pos: Array[Int],
    coreness: Array[Int],
    delta: Int
) extends Serializable

/** Linear-time degeneracy ordering via bucketed min-degree peeling
  * (Matula–Beck). Repeatedly removes a minimum-degree vertex; the largest
  * degree seen at removal time is the degeneracy δ. Used by GR, the VBBMC
  * baselines, the truss ordering's triangle listing and Table I statistics.
  */
object Degeneracy {

  def compute(g: LocalGraph): DegeneracyResult = {
    val n = g.n
    val deg = Array.tabulate(n)(g.degree)
    val maxDeg = if (n == 0) 0 else deg.max
    // Bucket sort vertices by degree.
    val binStart = new Array[Int](maxDeg + 2)
    var v = 0
    while (v < n) { binStart(deg(v) + 1) += 1; v += 1 }
    var d = 0
    while (d <= maxDeg) { binStart(d + 1) += binStart(d); d += 1 }
    val vert = new Array[Int](n) // vertices sorted by current degree
    val posIn = new Array[Int](n) // position of vertex in `vert`
    val cursor = java.util.Arrays.copyOf(binStart, maxDeg + 1)
    v = 0
    while (v < n) {
      posIn(v) = cursor(deg(v)); vert(posIn(v)) = v; cursor(deg(v)) += 1
      v += 1
    }
    // binStart(d) = first index in `vert` of a vertex with degree d.
    val bin = java.util.Arrays.copyOf(binStart, maxDeg + 1)
    val order = new Array[Int](n)
    val pos = new Array[Int](n)
    val coreness = new Array[Int](n)
    var delta = 0
    var i = 0
    while (i < n) {
      val u = vert(i)
      delta = math.max(delta, deg(u))
      coreness(u) = delta
      order(i) = u
      pos(u) = i
      var p = g.offsets(u); val pe = g.offsets(u + 1)
      while (p < pe) {
        val w = g.adj(p)
        // Only demote neighbors in strictly higher buckets: a neighbor already
        // at the current minimum keeps its bucket (its removal-time degree is
        // already determined), which also keeps bucket starts inside the
        // unscanned region. Vertices leave in non-decreasing degree, so a
        // removed neighbor never passes this test.
        if (deg(w) > deg(u)) {
          // Move w one bucket down: swap with the first vertex of its bucket.
          val dw = deg(w)
          val pw = posIn(w)
          val pFirst = bin(dw)
          val wFirst = vert(pFirst)
          if (w != wFirst) {
            vert(pw) = wFirst; posIn(wFirst) = pw
            vert(pFirst) = w; posIn(w) = pFirst
          }
          bin(dw) += 1
          deg(w) = dw - 1
        }
        p += 1
      }
      i += 1
    }
    DegeneracyResult(order, pos, coreness, delta)
  }
}

/** Degeneracy-forward lists (CSR, 2m + n + 1 ints): `adj(off(u) until
  * off(u + 1))` holds u's neighbours later in a degeneracy order, ascending
  * by id, and `edge` their canonical edge ids. Each edge sits once, at its
  * earlier endpoint, and a list holds at most δ entries (Chiba–Nishizeki).
  */
final class ForwardLists private (val off: Array[Int], val adj: Array[Int], val edge: Array[Int])
    extends Serializable {
  def n: Int = off.length - 1
}

object ForwardLists {

  /** The forward lists of `g` under the degeneracy positions `pos`. */
  def apply(g: LocalGraph, pos: Array[Int]): ForwardLists = {
    val off = new Array[Int](g.n + 1)
    val adj = new Array[Int](g.m)
    val edge = new Array[Int](g.m)
    var u = 0
    while (u < g.n) {
      var p = g.offsets(u); val pe = g.offsets(u + 1); var f = off(u)
      while (p < pe) {
        if (pos(g.adj(p)) > pos(u)) { adj(f) = g.adj(p); edge(f) = g.adjEdge(p); f += 1 }
        p += 1
      }
      off(u + 1) = f
      u += 1
    }
    new ForwardLists(off, adj, edge)
  }
}
