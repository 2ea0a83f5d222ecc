package repro.dist

import repro.SparkSpec
import repro.graph.{Degeneracy, EdgeOrders, GraphGen}

class DatasetStatsSpec extends SparkSpec {

  test("stats of a known small graph") {
    val g = repro.graph.LocalGraph.complete(6)
    val r = DatasetStats.compute("K6", "complete", g)
    assert(r.n == 6 && r.m == 15)
    assert(r.delta == 5 && r.tau == 4)
    assert(math.abs(r.rho - 2.5) < 1e-9)
    // 5 >= max(3, 4 + 3*ln(2.5)/ln3) = 6.5 does not hold on K6
    assert(!r.conditionHolds)
  }

  test("condition formula evaluates as in the paper") {
    // delta >= max{3, tau + 3 ln(rho)/ln 3}
    val g = repro.graph.LocalGraph.complete(6)
    val r = DatasetStats.compute("K6", "complete", g)
    val rhs = math.max(3.0, r.tau + 3.0 * math.log(r.rho) / math.log(3.0))
    assert(r.conditionHolds == (r.delta >= rhs))
  }

  test("suite stats: tau < delta on every dataset (paper Table I property)") {
    GraphGen.paperSuite.foreach { cfg =>
      val g = GraphGen.generate(cfg)
      val delta = Degeneracy.compute(g).delta
      val tau = EdgeOrders.truss(g).bound
      assert(tau < delta, s"${cfg.name}: tau=$tau delta=$delta")
    }
  }

  test("suite stats: the complexity condition holds for most datasets") {
    val rows = GraphGen.paperSuite.map { cfg =>
      DatasetStats.compute(cfg.name, cfg.fullName, GraphGen.generate(cfg))
    }
    val holding = rows.count(_.conditionHolds)
    assert(holding >= rows.size / 2, s"only $holding/${rows.size} hold the condition")
  }
}
