package repro.bench

import org.apache.spark.sql.SparkSession
import repro.dist.{DatasetStats, DistMCE}
import repro.graph.{GraphGen, LocalGraph}
import repro.mce._

/** Shared benchmark harness: one function per paper table.
  *
  * Timings are wall-clock over the *sequential* engine (`Engine.runLocal`),
  * matching the paper's single-threaded C++ measurements; they include
  * ordering generation, as the paper's do. Each table function also asserts
  * that every algorithm configuration found exactly the same number of
  * maximal cliques — a strong cross-validation that runs on every bench.
  * Results are printed paper-style and written as TSV under bench_results/.
  */
object BenchTables {

  /** Dataset cache — generation is deterministic, so share across suites. */
  private val cache = new scala.collection.mutable.LinkedHashMap[String, LocalGraph]()

  def dataset(name: String): LocalGraph = synchronized {
    cache.getOrElseUpdate(name, GraphGen.generate(GraphGen.byName(name)))
  }

  def datasetNames: Seq[String] = GraphGen.paperSuite.map(_.name)

  final case class RunResult(millis: Double, stats: MceStats)

  /** Time one sequential run (preparation + enumeration, like the paper). */
  def timed(g: LocalGraph, cfg: MceConfig): RunResult = {
    System.gc() // isolate runs from each other's garbage
    val t0 = System.nanoTime()
    val stats = Engine.runLocal(g, cfg, CliqueSink.discard)
    val t1 = System.nanoTime()
    RunResult((t1 - t0) / 1e6, stats)
  }

  @volatile private var warmed = false

  /** JIT warmup: run every configuration of the tables once on a mid-size
    * dataset.
    */
  def warmup(): Unit = synchronized {
    if (!warmed) {
      val g = dataset("FB")
      Seq(table2Cfgs, table3Cfgs, table4Cfgs, table5Cfgs, table6Cfgs).flatten.map(_._2).distinct
        .foreach(cfg => timed(g, cfg))
      warmed = true
    }
  }

  private def named(names: String*): Seq[(String, MceConfig)] =
    names.map(n => n -> MceConfig.byName(n))

  private def resultsDir: java.io.File = {
    val d = new java.io.File("bench_results")
    d.mkdirs()
    d
  }

  def writeTsv(fileName: String, header: Seq[String], rows: Seq[Seq[String]]): Unit = {
    val f = new java.io.File(resultsDir, fileName)
    val w = new java.io.PrintWriter(f, "UTF-8")
    try {
      w.println(header.mkString("\t"))
      rows.foreach(r => w.println(r.mkString("\t")))
    } finally w.close()
  }

  def renderTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("  ")
    (Seq(s"== $title ==", fmt(header)) ++ rows.map(fmt)).mkString("\n")
  }

  private def fmtMs(ms: Double): String = f"$ms%.1f"
  private def fmtCalls(c: Long): String =
    if (c >= 1000000000L) f"${c / 1e9}%.2fB"
    else if (c >= 1000000L) f"${c / 1e6}%.2fM"
    else if (c >= 1000L) f"${c / 1e3}%.1fK"
    else c.toString

  /** Runs all `cfgs` on all datasets; asserts equal clique counts per
    * dataset; returns per-dataset (times-ms, stats).
    */
  def sweep(cfgs: Seq[(String, MceConfig)]): Seq[(String, Seq[RunResult])] = {
    warmup()
    datasetNames.map { name =>
      val g = dataset(name)
      val results = cfgs.map { case (_, cfg) => timed(g, cfg) }
      val counts = results.map(_.stats.cliques).distinct
      require(counts.size == 1,
        s"clique-count mismatch on $name: ${cfgs.map(_._1).zip(results.map(_.stats.cliques))}")
      (name, results)
    }
  }

  // ------------------------------------------------------------- Table I

  def table1(): String = {
    val rows = DatasetStats.computeSuite().map { r =>
      Seq(r.name, r.n.toString, r.m.toString, r.delta.toString, r.tau.toString,
        f"${r.rho}%.1f", if (r.conditionHolds) "yes" else "no")
    }
    val header = Seq("Graph", "|V|", "|E|", "delta", "tau", "rho", "cond")
    writeTsv("table1.tsv", header, rows)
    renderTable("Table I: dataset statistics (synthetic stand-ins)", header, rows) +
      "\n\n" + PaperNumbers.table1
  }

  // ------------------------------------------------------------ Table II

  val table2Cfgs: Seq[(String, MceConfig)] = named("HBBMC++", "RRef", "RDegen", "RRcd", "RFac")

  def table2(): String = genericTimeTable("Table II: comparison with baselines (ms)",
    "table2.tsv", table2Cfgs, PaperNumbers.table2)

  // ----------------------------------------------------------- Table III

  val table3Cfgs: Seq[(String, MceConfig)] =
    named("HBBMC++", "HBBMC+", "RDegen", "Ref++", "Rcd++", "Fac++")

  def table3(): String = genericTimeTable(
    "Table III: ablation and hybrid inner variants (ms)",
    "table3.tsv", table3Cfgs, PaperNumbers.table3)

  private def genericTimeTable(title: String, tsv: String,
                               cfgs: Seq[(String, MceConfig)], paper: String): String = {
    val data = sweep(cfgs)
    val header = "Graph" +: cfgs.map(_._1) :+ "#cliques"
    val rows = data.map { case (name, results) =>
      name +: results.map(r => fmtMs(r.millis)) :+ results.head.stats.cliques.toString
    }
    writeTsv(tsv, header, rows)
    // Companion block: recursive-call counts. At our ~1/100 scale the fixed
    // ordering/subgraph-construction cost of the hybrid is not amortized the
    // way it is on the paper's 10^6..10^8-edge graphs, so the search-tree
    // size is the scale-robust signal of the algorithmic comparison
    // (see EXPERIMENTS.md).
    val callRows = data.map { case (name, results) =>
      name +: results.map(r => fmtCalls(r.stats.calls))
    }
    writeTsv(tsv.replace(".tsv", "_calls.tsv"), header.dropRight(1), callRows)
    renderTable(title, header, rows) + "\n\n" +
      renderTable(title.takeWhile(_ != ':') + ": #Calls (ours)", header.dropRight(1), callRows) +
      "\n\n" + paper
  }

  // ------------------------------------------------------------ Table IV

  val table4Cfgs: Seq[(String, MceConfig)] = (1 to 3).map(d => s"d=$d" -> MceConfig.hbbmcDepth(d))

  def table4(): String = {
    val data = sweep(table4Cfgs)
    val header = "Graph" +: table4Cfgs.flatMap { case (d, _) => Seq(s"$d ms", s"$d #Calls") }
    val rows = data.map { case (name, rs) =>
      name +: rs.flatMap(r => Seq(fmtMs(r.millis), fmtCalls(r.stats.calls)))
    }
    writeTsv("table4.tsv", header, rows)
    renderTable("Table IV: depth of the edge-oriented phase", header, rows) +
      "\n\n" + PaperNumbers.table4
  }

  // ------------------------------------------------------------- Table V

  val table5Cfgs: Seq[(String, MceConfig)] = (0 to 3).map(t => s"t=$t" -> MceConfig.hbbmcT(t))

  def table5(): String = {
    val data = sweep(table5Cfgs)
    val header = "Graph" +: table5Cfgs.flatMap { case (t, cfg) =>
      Seq(s"$t ms", s"$t #Calls") ++ (if (cfg.etT > 0) Seq(s"$t Ratio") else Nil) }
    val rows = data.map { case (name, rs) =>
      name +: rs.zip(table5Cfgs).flatMap { case (r, (_, cfg)) =>
        val base = Seq(fmtMs(r.millis), fmtCalls(r.stats.calls))
        if (cfg.etT == 0) base
        else {
          val ratio =
            if (r.stats.plexBranches == 0) "n/a"
            else f"${100.0 * r.stats.etApplied / r.stats.plexBranches}%.1f%%"
          base :+ ratio
        }
      }
    }
    writeTsv("table5.tsv", header, rows)
    renderTable("Table V: early-termination parameter t", header, rows) +
      "\n\n" + PaperNumbers.table5
  }

  // ------------------------------------------------------------ Table VI

  val table6Cfgs: Seq[(String, MceConfig)] =
    named("HBBMC++", "VBBMC-dgn", "HBBMC-dgn", "HBBMC-mdg")

  def table6(): String = genericTimeTable("Table VI: effect of the level-1 ordering (ms)",
    "table6.tsv", table6Cfgs, PaperNumbers.table6)

  // ------------------------------------------- extra: distributed scaling

  def distTable(spark: SparkSession): String = {
    warmup()
    // Warm the task-side code paths too: the first parallel jobs trigger JIT
    // compilation inside executor threads.
    (1 to 2).foreach(_ => DistMCE.run(spark, dataset("FB"), MceConfig.hbbmcPP))
    // The two heaviest suite datasets and `GraphGen.xl`.
    val names = Seq("DG", "OR", "XL")
    val header = Seq("Graph", "local ms", "DistMCE ms", "speedup", "#cliques")
    val rows = names.map { name =>
      val g = dataset(name)
      // best of two for both sides: JVM/GC jitter dominates at this scale
      val local = Seq(timed(g, MceConfig.hbbmcPP), timed(g, MceConfig.hbbmcPP)).minBy(_.millis)
      def distOnce(): (Double, MceStats) = {
        System.gc()
        val t0 = System.nanoTime()
        val stats = DistMCE.run(spark, g, MceConfig.hbbmcPP)
        ((System.nanoTime() - t0) / 1e6, stats)
      }
      val (distMs, stats) = Seq(distOnce(), distOnce()).minBy(_._1)
      require(stats.cliques == local.stats.cliques,
        s"distributed/local clique-count mismatch on $name: ${stats.cliques} vs ${local.stats.cliques}")
      Seq(name, fmtMs(local.millis), fmtMs(distMs),
        f"${local.millis / distMs}%.2fx", stats.cliques.toString)
    }
    writeTsv("table_dist.tsv", header, rows)
    renderTable("Extra: DistMCE (Spark, branch-parallel) vs sequential", header, rows)
  }
}
