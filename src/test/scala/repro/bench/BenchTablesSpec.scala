package repro.bench

import repro.SparkSpec
import repro.bench.BenchTables.RunResult
import repro.mce.{MceConfig, MceStats}

class BenchTablesSpec extends SparkSpec {

  private def stats(cliques: Long, calls: Long, et: Long, plex: Long): MceStats =
    MceStats(cliques, 0L, 0, calls, et, plex, 0L)

  test("a sweep table has ms and #Calls per config, b0/b where early termination runs, #cliques last") {
    val cfgs = Seq("R" -> MceConfig.rDegen, "H" -> MceConfig.hbbmcPP, "T1" -> MceConfig.hbbmcT(1))
    val data = Seq(
      "G1" -> Seq(RunResult(12.34, stats(42, 1500, 0, 0)), RunResult(5.0, stats(42, 2500000, 3, 4)),
        RunResult(7.5, stats(42, 999, 0, 0))),
      "G2" -> Seq(RunResult(0.04, stats(7, 12, 0, 0)), RunResult(1234.5, stats(7, 3000000000L, 0, 8)),
        RunResult(2.0, stats(7, 1000000, 1, 3))))
    val (header, rows) = BenchTables.sweepTable(cfgs, data)
    assert(header == Seq("Graph", "R ms", "R #Calls", "H ms", "H #Calls", "H b0/b",
      "T1 ms", "T1 #Calls", "T1 b0/b", "#cliques"))
    assert(rows == Seq(
      Seq("G1", "12.3", "1.5K", "5.0", "2.50M", "75.0%", "7.5", "999", "n/a", "42"),
      Seq("G2", "0.0", "12", "1234.5", "3.00B", "0.0%", "2.0", "1.00M", "33.3%", "7")))
  }

  test("a cell reports its median run, and runs with different statistics are rejected") {
    val runs = Seq(RunResult(9.0, stats(42, 1500, 3, 4)), RunResult(2.0, stats(42, 1500, 3, 4)),
      RunResult(5.0, stats(42, 1500, 3, 4)))
    assert(BenchTables.median("H on G1", runs) == runs(2))
    val e = intercept[IllegalArgumentException](
      BenchTables.median("H on G1", runs.updated(1, RunResult(2.0, stats(42, 1501, 3, 4)))))
    assert(e.getMessage.contains("H on G1"), e.getMessage)
  }

  test("each sweep names its configs once; Table IV runs d = 1..3 and Table V t = 0..3") {
    BenchTables.sweeps.foreach(s => assert(s.cfgs.map(_._1).distinct == s.cfgs.map(_._1), s.id))
    assert(BenchTables.sweeps.find(_.id == "5").get.cfgs.map(_._2.etT) == Seq(0, 1, 2, 3))
    assert(BenchTables.sweeps.find(_.id == "4").get.cfgs.map(_._2.edgeDepth) == Seq(1, 2, 3))
  }
}
