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
    val removed = new Array[Boolean](n)
    var i = 0
    while (i < n) {
      val u = vert(i)
      delta = math.max(delta, deg(u))
      coreness(u) = delta
      order(i) = u
      pos(u) = i
      removed(u) = true
      g.foreachNeighbor(u) { w =>
        // Only demote neighbors in strictly higher buckets: a neighbor already
        // at the current minimum keeps its bucket (its removal-time degree is
        // already determined), which also keeps bucket starts inside the
        // unscanned region.
        if (!removed(w) && deg(w) > deg(u)) {
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
      }
      i += 1
    }
    DegeneracyResult(order, pos, coreness, delta)
  }
}
