package repro.perf

/** Order statistics, computed as Python's `statistics.quantiles(n=4)` and
  * `statistics.median` compute them.
  */
object Stats {

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.length
    require(n > 0, "median of no samples")
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** First and third quartile ("exclusive" method); a single sample is its
    * own quartiles.
    */
  def quartiles(xs: Seq[Double]): (Double, Double) = {
    val s = xs.sorted
    val n = s.length
    require(n > 0, "quartiles of no samples")
    if (n == 1) return (s(0), s(0))
    def q(i: Int): Double = {
      val m = n + 1
      val j = math.min(math.max(i * m / 4, 1), n - 1)
      val delta = i * m - j * 4
      (s(j - 1) * (4 - delta) + s(j) * delta) / 4
    }
    (q(1), q(3))
  }
}
