package repro.bench

import repro.SparkSpec

/** Benchmark suites, one per paper table. Each prints the measured table
  * with the paper's numbers below it, writes a TSV under bench_results/,
  * and cross-validates that all algorithm configurations agree on the exact
  * number of maximal cliques for every dataset.
  *
  * Suites are ordered alphabetically by class name within one forked JVM
  * (parallelExecution = false), and the dataset cache in BenchTables is
  * shared, so generation cost is paid once.
  */
class Table1Bench extends SparkSpec {
  test("Table I: dataset statistics") {
    println(BenchTables.table1())
  }
}

class Table2Bench extends SparkSpec {
  test("Table II: HBBMC++ vs RRef/RDegen/RRcd/RFac") {
    println(BenchTables.table2())
  }
}

class Table3Bench extends SparkSpec {
  test("Table III: ablation and hybrid inner variants") {
    println(BenchTables.table3())
  }
}

class Table4Bench extends SparkSpec {
  test("Table IV: edge-oriented branching depth d") {
    println(BenchTables.table4())
  }
}

class Table5Bench extends SparkSpec {
  test("Table V: early-termination parameter t") {
    println(BenchTables.table5())
  }
}

class Table6Bench extends SparkSpec {
  test("Table VI: level-1 edge orderings") {
    println(BenchTables.table6())
  }
}

class Table7DistBench extends SparkSpec {
  test("Extra: distributed HBBMC++ via DistMCE") {
    println(BenchTables.distTable(spark))
  }
}
