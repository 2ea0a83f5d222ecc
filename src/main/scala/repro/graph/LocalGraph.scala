package repro.graph

/** Compact CSR representation of an undirected simple graph.
  *
  * Vertices are `0 until n`. Adjacency lists are sorted, enabling
  * O(log d) membership tests. Canonical edges are the pairs `(eu(i), ev(i))` with `eu(i) < ev(i)`,
  * sorted lexicographically, so an edge id doubles as a stable index
  * for rank arrays (truss order, degeneracy-lex order, ...). `adjEdge`
  * gives an O(1) edge id per adjacency slot, with no search.
  *
  * Instances are immutable and `Serializable` so they can be broadcast
  * to Spark executors by `repro.dist.DistMCE`.
  */
final class LocalGraph private (
    val n: Int,
    val offsets: Array[Int], // length n + 1
    val adj: Array[Int],     // length 2m, sorted per vertex
    val adjEdge: Array[Int], // length 2m: canonical edge id of {v, adj(p)} at slot p of v
    val eu: Array[Int],      // canonical edges, u < v, sorted by (u, v)
    val ev: Array[Int]
) extends Serializable {

  /** Number of undirected edges. */
  def m: Int = eu.length

  def degree(v: Int): Int = offsets(v + 1) - offsets(v)

  def neighbors(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(adj, offsets(v), offsets(v + 1))

  /** Adjacency slot of {u, v} in the smaller-degree endpoint's list, or
    * -1 if absent: the one O(log d) binary search.
    */
  def edgeSlot(u: Int, v: Int): Int =
    if (u == v) -1
    else if (degree(u) <= degree(v)) binarySearch(adj, offsets(u), offsets(u + 1), v)
    else binarySearch(adj, offsets(v), offsets(v + 1), u)

  /** O(log d) adjacency test. */
  def hasEdge(u: Int, v: Int): Boolean = edgeSlot(u, v) >= 0

  /** Canonical edge id of {u, v}, or -1 if absent. */
  def edgeId(u: Int, v: Int): Int = {
    val p = edgeSlot(u, v)
    if (p < 0) -1 else adjEdge(p)
  }

  /** All canonical edges as packed (u, v) pairs — handy for tests. */
  def edgePairs: Array[(Int, Int)] = Array.tabulate(m)(i => (eu(i), ev(i)))

  private def binarySearch(a: Array[Int], from: Int, until: Int, key: Int): Int = {
    var lo = from; var hi = until - 1
    while (lo <= hi) {
      val mid = (lo + hi) >>> 1
      val v = a(mid)
      if (v < key) lo = mid + 1
      else if (v > key) hi = mid - 1
      else return mid
    }
    -1
  }
}

object LocalGraph {

  /** Build from an arbitrary multiset of directed/undirected pairs:
    * self-loops are dropped, duplicates and reversed duplicates merged.
    */
  def fromEdges(n: Int, pairs: IterableOnce[(Int, Int)]): LocalGraph = {
    val packed = Array.newBuilder[Long]
    val it = pairs.iterator
    while (it.hasNext) {
      val (x, y) = it.next()
      require(x >= 0 && x < n && y >= 0 && y < n, s"vertex out of range: ($x,$y) with n=$n")
      if (x != y) {
        val a = math.min(x, y); val b = math.max(x, y)
        packed += ((a.toLong << 32) | (b.toLong & 0xffffffffL))
      }
    }
    val sorted = packed.result()
    java.util.Arrays.sort(sorted)
    var mDistinct = 0
    var i = 0
    while (i < sorted.length) {
      if (mDistinct == 0 || sorted(mDistinct - 1) != sorted(i)) {
        sorted(mDistinct) = sorted(i); mDistinct += 1
      }
      i += 1
    }
    val eu = new Array[Int](mDistinct)
    val ev = new Array[Int](mDistinct)
    i = 0
    while (i < mDistinct) {
      eu(i) = (sorted(i) >>> 32).toInt
      ev(i) = (sorted(i) & 0xffffffffL).toInt
      i += 1
    }
    fromCanonical(n, eu, ev)
  }

  /** Build from canonical edges: `eu(i) < ev(i)`, sorted strictly by
    * (eu, ev), which one O(m) pass checks; the graph takes the two arrays as
    * its own.
    */
  def fromCanonical(n: Int, eu: Array[Int], ev: Array[Int]): LocalGraph = {
    require(eu.length == ev.length, s"${eu.length} edge starts but ${ev.length} edge ends")
    val m = eu.length
    var i = 0
    while (i < m) {
      require(0 <= eu(i) && eu(i) < ev(i) && ev(i) < n,
        s"edge $i = (${eu(i)},${ev(i)}) is not canonical (u < v) with n=$n")
      require(i == 0 || eu(i - 1) < eu(i) || (eu(i - 1) == eu(i) && ev(i - 1) < ev(i)),
        s"edge $i = (${eu(i)},${ev(i)}) does not follow edge ${i - 1} = (${eu(i - 1)},${ev(i - 1)})")
      i += 1
    }
    val deg = new Array[Int](n)
    i = 0
    while (i < m) { deg(eu(i)) += 1; deg(ev(i)) += 1; i += 1 }
    val offsets = new Array[Int](n + 1)
    i = 0
    while (i < n) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val cursor = java.util.Arrays.copyOf(offsets, n)
    val adj = new Array[Int](2 * m)
    val adjEdge = new Array[Int](2 * m)
    // Edges arrive in canonical (u, v) order, so vertex x first receives its
    // smaller neighbours u < x in ascending order, then its larger ones
    // v > x in ascending order: every list comes out sorted, and must not
    // be re-sorted, which would break its pairing with `adjEdge`.
    i = 0
    while (i < m) {
      adj(cursor(eu(i))) = ev(i); adjEdge(cursor(eu(i))) = i; cursor(eu(i)) += 1
      adj(cursor(ev(i))) = eu(i); adjEdge(cursor(ev(i))) = i; cursor(ev(i)) += 1
      i += 1
    }
    new LocalGraph(n, offsets, adj, adjEdge, eu, ev)
  }

  /** The empty graph on n vertices. */
  def empty(n: Int): LocalGraph = fromEdges(n, Iterator.empty)

  /** Complete graph on n vertices (test helper). */
  def complete(n: Int): LocalGraph =
    fromEdges(n, for { u <- 0 until n; v <- (u + 1) until n } yield (u, v))
}
