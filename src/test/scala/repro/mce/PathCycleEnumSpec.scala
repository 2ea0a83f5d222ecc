package repro.mce

import repro.{SparkSpec, TestGraphs}
import repro.mce.EarlyTerminationSpec.etCliques

/** Algorithms 6 and 7 (Enum_from_Path / Enum_from_Cycle) inside early
  * termination (`Kernels.Solver.terminate`, reached through `etCliques`):
  * the maximal cliques of K_l minus a path or cycle are exactly the maximal
  * independent sets of that path or cycle.
  * Checked against subset-enumeration ground truth for every length up to 16.
  */
class PathCycleEnumSpec extends SparkSpec {

  private def pathEdges(l: Int): Seq[(Int, Int)] = (0 until l - 1).map(i => (i, i + 1))
  private def cycleEdges(l: Int): Seq[(Int, Int)] = (0 until l).map(i => (i, (i + 1) % l))
  private def pathCliques(l: Int) = etCliques(TestGraphs.completeMinus(l, pathEdges(l)))
  private def cycleCliques(l: Int) = etCliques(TestGraphs.completeMinus(l, cycleEdges(l)))

  for (l <- 2 to 16)
    test(s"Enum_from_Path matches brute-force MIS, |p|=$l") {
      val got = pathCliques(l)
      val want = TestGraphs.bruteMisPath(l)
      assert(got == want, s"got=$got want=$want")
    }

  for (l <- 3 to 16)
    test(s"Enum_from_Cycle matches brute-force MIS, |c|=$l") {
      val got = cycleCliques(l)
      val want = TestGraphs.bruteMisCycle(l)
      assert(got == want, s"got=$got want=$want")
    }

  test("path of 2 yields the two singletons") {
    assert(pathCliques(2) == Vector(Vector(0), Vector(1)))
  }

  test("cycle special cases use the paper's explicit sets") {
    assert(cycleCliques(3) == Vector(Vector(0), Vector(1), Vector(2)))
    assert(cycleCliques(4) == Vector(Vector(0, 2), Vector(1, 3)))
    assert(cycleCliques(5).length == 5)
  }

  test("no duplicates are produced") {
    for (l <- 2 to 14) {
      val p = pathCliques(l)
      assert(p.distinct == p)
    }
    for (l <- 3 to 14) {
      val c = cycleCliques(l)
      assert(c.distinct == c)
    }
  }
}
