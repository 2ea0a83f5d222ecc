package repro.mce

/** Minimal fixed-width bitset helpers over raw `Array[Long]`.
  *
  * The branch-and-bound kernels spend almost all their time in set
  * intersections over per-branch vertex sets, so these are implemented
  * as tight loops on long words (the same trick the paper's C++ code
  * uses). All arrays passed to one call must have the same word length.
  */
object Bits {

  def words(nBits: Int): Int = (nBits + 63) >>> 6

  def set(a: Array[Long], i: Int): Unit = a(i >>> 6) |= (1L << (i & 63))

  def clear(a: Array[Long], i: Int): Unit = a(i >>> 6) &= ~(1L << (i & 63))

  def isEmpty(a: Array[Long]): Boolean = {
    var i = 0
    while (i < a.length) { if (a(i) != 0L) return false; i += 1 }
    true
  }

  def count(a: Array[Long]): Int = {
    var c = 0; var i = 0
    while (i < a.length) { c += java.lang.Long.bitCount(a(i)); i += 1 }
    c
  }

  /** First set bit, or -1. */
  def first(a: Array[Long]): Int = {
    var i = 0
    while (i < a.length) {
      if (a(i) != 0L) return (i << 6) + java.lang.Long.numberOfTrailingZeros(a(i))
      i += 1
    }
    -1
  }

  // ---- row variants: the second operand lives at `off` inside a flat
  // row-major matrix (a workspace's neighborhood matrix and a branch's rows
  // in force are stored this way, one array for all rows).

  def setRow(flat: Array[Long], off: Int, i: Int): Unit =
    flat(off + (i >>> 6)) |= (1L << (i & 63))

  def clear2d(flat: Array[Long], off: Int, i: Int): Unit =
    flat(off + (i >>> 6)) &= ~(1L << (i & 63))

  def getRow(flat: Array[Long], off: Int, i: Int): Boolean =
    (flat(off + (i >>> 6)) & (1L << (i & 63))) != 0L

  def countAndRow(set: Array[Long], flat: Array[Long], off: Int): Int = {
    var c = 0; var i = 0
    while (i < set.length) { c += java.lang.Long.bitCount(set(i) & flat(off + i)); i += 1 }
    c
  }

  /** Number of bits of set & ~row. */
  def countAndNotRow(set: Array[Long], flat: Array[Long], off: Int): Int = {
    var c = 0; var i = 0
    while (i < set.length) { c += java.lang.Long.bitCount(set(i) & ~flat(off + i)); i += 1 }
    c
  }

  /** First set bit of set & ~row, or -1. */
  def firstAndNotRow(set: Array[Long], flat: Array[Long], off: Int): Int = {
    var i = 0
    while (i < set.length) {
      val w = set(i) & ~flat(off + i)
      if (w != 0L) return (i << 6) + java.lang.Long.numberOfTrailingZeros(w)
      i += 1
    }
    -1
  }

  /** dest = set & row; dest may be `set` itself. */
  def andIntoRow(dest: Array[Long], set: Array[Long], flat: Array[Long], off: Int): Unit = {
    var i = 0
    while (i < dest.length) { dest(i) = set(i) & flat(off + i); i += 1 }
  }

  /** dest = set & ~row. */
  def andNotIntoRow(dest: Array[Long], set: Array[Long], flat: Array[Long], off: Int): Unit = {
    var i = 0
    while (i < dest.length) { dest(i) = set(i) & ~flat(off + i); i += 1 }
  }

  /** dest = (x & fullRow) | (c & fullRow & ~survRow); `c` may be shorter
    * than dest (missing words are zero) — branch layouts put candidates
    * first, so candidate sets span fewer words.
    */
  def mixXIntoRow(dest: Array[Long], x: Array[Long], c: Array[Long],
                  fullFlat: Array[Long], survFlat: Array[Long], off: Int): Unit = {
    var i = 0
    while (i < dest.length) {
      val f = fullFlat(off + i)
      val cw = if (i < c.length) c(i) else 0L
      dest(i) = (x(i) & f) | (cw & f & ~survFlat(off + i))
      i += 1
    }
  }

  /** dest = a | b with b possibly shorter than dest/a. */
  def orIntoMixed(dest: Array[Long], a: Array[Long], b: Array[Long]): Unit = {
    var i = 0
    while (i < dest.length) {
      dest(i) = a(i) | (if (i < b.length) b(i) else 0L)
      i += 1
    }
  }

  /** a &= ~b with b possibly shorter than a. */
  def andNotInPlace(a: Array[Long], b: Array[Long]): Unit = {
    var i = 0
    while (i < b.length) { a(i) &= ~b(i); i += 1 }
  }
}
