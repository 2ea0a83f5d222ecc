package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.BenchTables

object JobSession {
  /** A session that logs warnings only, so its per-task INFO lines do not
    * bury the tables printed on the same console.
    */
  def session(app: String): SparkSession = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    spark
  }
}

/** The paper's evaluation tables, any subset in one JVM:
  *
  *   spark-submit --class repro.jobs.TablesJob repro.jar [1 2 3 4 5 6 dist]
  *
  * With no ids it runs every table. Each table prints the measured numbers
  * (with the paper's below them) and writes a TSV under bench_results/; the
  * tables share `BenchTables`' one warm-up and dataset cache. Only `dist`
  * (distributed HBBMC++, an extra table) starts a SparkSession.
  */
object TablesJob {
  private val local: Seq[(String, () => String)] =
    ("1" -> (() => BenchTables.table1())) +:
      BenchTables.sweeps.map(s => s.id -> (() => BenchTables.runSweep(s)))

  /** Every table id, in run order. */
  val ids: Seq[String] = local.map(_._1) :+ "dist"

  /** The tables `args` selects, in run order and each once: all of them
    * when `args` is empty.
    */
  def select(args: Seq[String]): Seq[String] = {
    val unknown = args.filterNot(ids.contains).distinct
    if (unknown.nonEmpty) throw new IllegalArgumentException(
      s"unknown table ${unknown.mkString(", ")}; known: ${ids.mkString(", ")}")
    if (args.isEmpty) ids else ids.filter(args.contains)
  }

  def main(args: Array[String]): Unit = {
    val chosen = select(args.toSeq)
    local.foreach { case (id, table) => if (chosen.contains(id)) println(table()) }
    if (chosen.contains("dist")) {
      val spark = JobSession.session("dist-mce")
      try println(BenchTables.distTable(spark)) finally spark.stop()
    }
  }
}

/** Run one dataset with one configuration, by its paper name
  * (`MceConfig.named`), through Spark, e.g. `MceRunJob OR HBBMC++`.
  */
object MceRunJob {
  def main(args: Array[String]): Unit = {
    val name = if (args.nonEmpty) args(0) else "FB"
    val cfgName = if (args.length > 1) args(1) else "HBBMC++"
    val cfg = repro.mce.MceConfig.byName(cfgName)
    val g = BenchTables.dataset(name)
    val spark = JobSession.session(s"mce-$name-$cfgName")
    try {
      val stats = repro.dist.DistMCE.run(spark, g, cfg)
      println(s"dataset=$name cfg=$cfgName cliques=${stats.cliques} " +
        s"maxSize=${stats.maxSize} calls=${stats.calls} et=${stats.etApplied}")
    } finally spark.stop()
  }
}
