package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.BenchTables

/** spark-submit entrypoints, one per evaluation table:
  *
  *   spark-submit --class repro.jobs.Table2Job repro.jar
  *
  * Each prints the measured table (with the paper's numbers below it) and
  * writes a TSV under bench_results/.
  */
object JobSession {
  def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
}

object Table1Job {
  def main(args: Array[String]): Unit = println(BenchTables.table1())
}

object Table2Job {
  def main(args: Array[String]): Unit = println(BenchTables.table2())
}

object Table3Job {
  def main(args: Array[String]): Unit = println(BenchTables.table3())
}

object Table4Job {
  def main(args: Array[String]): Unit = println(BenchTables.table4())
}

object Table5Job {
  def main(args: Array[String]): Unit = println(BenchTables.table5())
}

object Table6Job {
  def main(args: Array[String]): Unit = println(BenchTables.table6())
}

/** Distributed HBBMC++ on the heavier datasets (extra table). */
object DistJob {
  def main(args: Array[String]): Unit = {
    val spark = JobSession.session("dist-mce")
    try println(BenchTables.distTable(spark)) finally spark.stop()
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
    val spark = JobSession.session(s"mce-$name-$cfgName")
    try {
      val g = BenchTables.dataset(name)
      val stats = repro.dist.DistMCE.run(spark, g, cfg)
      println(s"dataset=$name cfg=$cfgName cliques=${stats.cliques} " +
        s"maxSize=${stats.maxSize} calls=${stats.calls} et=${stats.etApplied}")
    } finally spark.stop()
  }
}
