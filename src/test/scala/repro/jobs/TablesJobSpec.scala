package repro.jobs

import repro.SparkSpec

class TablesJobSpec extends SparkSpec {

  test("no ids selects every table in run order") {
    assert(TablesJob.select(Nil) == Seq("1", "2", "3", "4", "5", "6", "dist"))
  }

  test("a subset runs in run order, each table once") {
    assert(TablesJob.select(Seq("dist", "6", "2", "6")) == Seq("2", "6", "dist"))
  }

  test("an unknown id is rejected with the known ids named") {
    val e = intercept[IllegalArgumentException](TablesJob.select(Seq("2", "9")))
    assert(e.getMessage == "unknown table 9; known: 1, 2, 3, 4, 5, 6, dist")
  }
}
