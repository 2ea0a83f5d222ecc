package repro.dist

import repro.{SparkSpec, TestGraphs}
import repro.graph.{GraphGen, LocalGraph}
import repro.mce.{CollectSink, Engine, MceConfig, RefBK}

/** The Spark-distributed enumeration must match the sequential engine (and
  * hence the plain-BK reference) exactly — counts, cliques, and statistics.
  */
class DistMCESpec extends SparkSpec {

  private def collectDist(g: LocalGraph, cfg: MceConfig): Vector[Vector[Int]] =
    DistMCE.runCollect(spark, g, cfg)._1

  test("distributed HBBMC++ equals reference on a random graph") {
    val g = GraphGen.randomGnp(40, 0.25, 21)
    assert(collectDist(g, MceConfig.hbbmcPP) == RefBK.enumerate(g))
  }

  test("distributed RDegen equals reference") {
    val g = GraphGen.randomGnp(35, 0.3, 22)
    assert(collectDist(g, MceConfig.rDegen) == RefBK.enumerate(g))
  }

  test("distributed EBBMC equals reference") {
    val g = GraphGen.randomGnp(30, 0.3, 23)
    assert(collectDist(g, MceConfig.ebbmc) == RefBK.enumerate(g))
  }

  test("count-only run matches collect run") {
    val g = GraphGen.generate(GraphGen.DatasetConfig("T", "t", 300, 3, 20, 5, 10, 0, 24))
    val stats = DistMCE.run(spark, g, MceConfig.hbbmcPP)
    val (_, statsCollect) = DistMCE.runCollect(spark, g, MceConfig.hbbmcPP)
    assert(stats.cliques == statsCollect.cliques)
    assert(stats.maxSize == statsCollect.maxSize)
    assert(stats.sumSize == statsCollect.sumSize)
  }

  test("local, distributed and collect runs report equal statistics") {
    val gnp = GraphGen.randomGnp(30, 0.3, 28)
    // A path tail hung on vertex 0 and an isolated vertex: GR removes both.
    val tail = (30 until 35).map(v => (v, if (v == 30) 0 else v - 1))
    val reducible = LocalGraph.fromEdges(36, gnp.eu.indices.map(e => (gnp.eu(e), gnp.ev(e))) ++ tail)
    for (g <- Seq(GraphGen.randomGnp(40, 0.25, 21), reducible);
         cfg <- Seq(MceConfig.hbbmcPP, MceConfig.rDegen, MceConfig.ebbmc)) {
      if (g eq reducible) assert(Engine.prepare(g, cfg).reduced.n < g.n)
      val local = Engine.runLocal(g, cfg, new CollectSink)
      assert(DistMCE.run(spark, g, cfg) == local, s"run, $cfg")
      assert(DistMCE.runCollect(spark, g, cfg)._2 == local, s"runCollect, $cfg")
    }
  }

  test("distributed equals sequential on a mid-size social graph") {
    val g = GraphGen.generate(GraphGen.DatasetConfig("T", "t", 600, 3, 40, 5, 12, 0, 25))
    val distStats = DistMCE.run(spark, g, MceConfig.hbbmcPP)
    val (_, localStats) = Engine.collectLocal(g, MceConfig.hbbmcPP)
    assert(distStats.cliques == localStats.cliques)
    assert(distStats.maxSize == localStats.maxSize)
    assert(distStats.sumSize == localStats.sumSize)
    // recursion work is identical regardless of partitioning
    assert(distStats.calls == localStats.calls)
  }

  test("special graphs through the distributed path") {
    for (g <- Seq(LocalGraph.empty(5), LocalGraph.complete(6), TestGraphs.moonMoser(3),
                  TestGraphs.path(7), TestGraphs.star(6))) {
      assert(collectDist(g, MceConfig.hbbmcPP) == RefBK.enumerate(g))
    }
  }

  test("parallelism does not change the result") {
    val g = GraphGen.randomGnp(45, 0.25, 26)
    val want = RefBK.enumerate(g)
    val prep = Engine.prepare(g, MceConfig.hbbmcPP)
    val local = Engine.runLocal(g, MceConfig.hbbmcPP, new CollectSink)
    // one level-1 branch per edge of the reduced graph
    assert(local.level1Branches == prep.reduced.m)
    // equal counters mean every level-1 unit is solved exactly once
    for (par <- Seq(1, 2, 7, 64, prep.units + 5)) {
      val (got, stats) = DistMCE.runCollect(spark, g, MceConfig.hbbmcPP, parallelism = par)
      assert(got == want, s"par=$par")
      assert(stats == local, s"runCollect, par=$par")
      assert(DistMCE.run(spark, g, MceConfig.hbbmcPP, parallelism = par) == local, s"run, par=$par")
    }
  }
}
