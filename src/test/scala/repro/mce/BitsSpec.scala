package repro.mce

import repro.SparkSpec
import scala.util.Random

class BitsSpec extends SparkSpec {

  private def make(nBits: Int): Array[Long] = new Array[Long](Bits.words(nBits))
  private def has(a: Array[Long], i: Int): Boolean = Bits.getRow(a, 0, i)
  private def members(a: Array[Long]): Set[Int] = (0 until a.length * 64).filter(has(a, _)).toSet

  /** A bitset of `nBits` bits holding `s`. */
  private def bits(nBits: Int, s: Set[Int]): Array[Long] = {
    val a = make(nBits); s.foreach(Bits.set(a, _)); a
  }

  /** A flat matrix of `rows` rows of `words` words, with `s` set in row `row`. */
  private def flatWithRow(rows: Int, words: Int, row: Int, s: Set[Int]): Array[Long] = {
    val flat = new Array[Long](rows * words)
    s.foreach(Bits.setRow(flat, row * words, _))
    flat
  }

  test("set/get/clear") {
    val a = make(130)
    assert(!has(a, 0) && !has(a, 129))
    Bits.set(a, 0); Bits.set(a, 63); Bits.set(a, 64); Bits.set(a, 129)
    assert(has(a, 0) && has(a, 63) && has(a, 64) && has(a, 129))
    Bits.clear(a, 64)
    assert(!has(a, 64))
    assert(Bits.count(a) == 3)
  }

  test("empty and count") {
    val a = make(100)
    assert(Bits.isEmpty(a) && Bits.count(a) == 0)
    Bits.set(a, 99)
    assert(!Bits.isEmpty(a) && Bits.count(a) == 1)
  }

  test("first bit") {
    val a = make(200)
    assert(Bits.first(a) == -1)
    Bits.set(a, 150); Bits.set(a, 77)
    assert(Bits.first(a) == 77)
  }

  for (seed <- 0 until 10)
    test(s"boolean algebra against reference sets, seed=$seed") {
      val rng = new Random(seed)
      val n = 1 + rng.nextInt(250)
      val w = Bits.words(n)
      val sa = (0 until n).filter(_ => rng.nextBoolean()).toSet
      val sb = (0 until n).filter(_ => rng.nextBoolean()).toSet
      val a = bits(n, sa)
      // b as row 2 of a 3-row matrix, the layout the kernels read
      val flat = flatWithRow(3, w, 2, sb)
      val and = make(n); Bits.andIntoRow(and, a, flat, 2 * w)
      assert(members(and) == sa.intersect(sb))
      val andNot = make(n); Bits.andNotIntoRow(andNot, a, flat, 2 * w)
      assert(members(andNot) == sa.diff(sb))
      assert(Bits.countAndRow(a, flat, 2 * w) == sa.intersect(sb).size)
      assert(Bits.countAndNotRow(a, flat, 2 * w) == sa.diff(sb).size)
      assert(Bits.firstAndNotRow(a, flat, 2 * w) == sa.diff(sb).minOption.getOrElse(-1))
      // dest may be the set operand itself
      val inPlace = bits(n, sa); Bits.andIntoRow(inPlace, inPlace, flat, 2 * w)
      assert(members(inPlace) == sa.intersect(sb))
      // the mixed variants take a shorter second operand (missing words = 0)
      val m = 1 + rng.nextInt(n)
      val sc = sb.filter(_ < m)
      val c = bits(m, sc)
      val or = make(n); Bits.orIntoMixed(or, a, c)
      assert(members(or) == sa.union(sc))
      Bits.andNotInPlace(or, c)
      assert(members(or) == sa.diff(sc))
    }

  test("mixXInto computes (x∩full) ∪ (c∩full∖surv)") {
    val rng = new Random(42)
    val n = 180
    val w = Bits.words(n)
    def randomSet(bound: Int) = (0 until bound).filter(_ => rng.nextBoolean()).toSet
    // candidates occupy a prefix, so c spans fewer words than x
    val sx = randomSet(n); val sc = randomSet(100)
    val sfull = randomSet(n); val ssurv = randomSet(n).intersect(sfull)
    val fullFlat = flatWithRow(2, w, 1, sfull)
    val survFlat = flatWithRow(2, w, 1, ssurv)
    val dest = make(n)
    Bits.mixXIntoRow(dest, bits(n, sx), bits(100, sc), fullFlat, survFlat, w)
    val expect = sx.intersect(sfull).union(sc.intersect(sfull).diff(ssurv))
    assert(members(dest) == expect)
  }
}
