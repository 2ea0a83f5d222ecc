package repro.dist

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.graph.LocalGraph
import repro.mce._

import scala.reflect.ClassTag

/** Spark-distributed maximal clique enumeration.
  *
  * The search tree is partitioned by its level-1 units, exactly as the
  * reproduction hint prescribes: anchor groups of the ordered initial edge
  * split for HBBMC/EBBMC, one *vertex* each for the VBBMC baselines. The
  * prepared state (reduced graph CSR + orderings + config) is broadcast;
  * each task solves its units with [[Engine.solveUnits]], the runner the
  * local engine uses, and returns its statistics (and, optionally, the
  * cliques themselves as a DataFrame for verification).
  */
object DistMCE {

  /** Count-only distributed run: returns merged statistics. */
  def run(spark: SparkSession, g: LocalGraph, cfg: MceConfig,
          parallelism: Int = 0): MceStats = {
    val prep = Engine.prepare(g, cfg)
    val direct = Engine.emitDirect(prep, CliqueSink.discard)
    solvePartitions(spark, prep, parallelism)(Engine.solveUnits(_, _, CliqueSink.discard))
      .collect()
      .foldLeft(direct)(_ merge _)
  }

  /** Distributed run that also returns every maximal clique as a DataFrame
    * with a single array<int> column `clique` (sorted ascending) — used by
    * the integration tests and the DataFrame-level verification joins.
    */
  def runCollect(spark: SparkSession, g: LocalGraph, cfg: MceConfig,
                 parallelism: Int = 0): (DataFrame, MceStats) = {
    import spark.implicits._
    val prep = Engine.prepare(g, cfg)
    val direct = new CollectSink
    val directStats = Engine.emitDirect(prep, direct)
    // One job solves every partition; the DataFrame and the statistics are
    // both read from its cached result.
    val parts = solvePartitions(spark, prep, parallelism) { (p, units) =>
      val collect = new CollectSink
      (Engine.solveUnits(p, units, collect), collect.cliques.toArray)
    }.cache()
    val stats = parts.map(_._1).collect().foldLeft(directStats)(_ merge _)
    val cliques = parts.flatMap(_._2.iterator.map(_.toSeq)).toDF("clique")
      .unionAll(direct.cliques.map(_.toSeq).toSeq.toDF("clique"))
    (cliques, stats)
  }

  /** Broadcast `prep`, spread its level-1 units over `parallelism` partitions
    * (4 × the default parallelism when 0) and apply `solve` to each
    * partition's units: one result per partition.
    */
  private def solvePartitions[R: ClassTag](spark: SparkSession, prep: Prepared, parallelism: Int)(
      solve: (Prepared, Array[Int]) => R): RDD[R] = {
    import spark.implicits._
    val par = if (parallelism > 0) parallelism else spark.sparkContext.defaultParallelism * 4
    val bc = spark.sparkContext.broadcast(prep)
    spark.range(0, prep.units.toLong).as[Long]
      .repartition(math.max(1, math.min(par, prep.units)))
      .rdd
      .mapPartitions(it => Iterator.single(solve(bc.value, it.map(_.toInt).toArray)))
  }
}
