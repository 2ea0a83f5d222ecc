package repro.dist

import org.apache.spark.sql.SparkSession
import repro.graph.LocalGraph
import repro.mce._

import scala.reflect.ClassTag

/** Spark-distributed maximal clique enumeration.
  *
  * The search tree is partitioned by its level-1 units: anchor groups of the
  * ordered edges for HBBMC/EBBMC, one vertex each for the VBBMC baselines.
  * The prepared state is broadcast, and each task solves one stripe of units
  * with [[Engine.solveUnits]], the runner the local engine uses. A call is one
  * Spark stage with no shuffle.
  */
object DistMCE {

  /** Count-only distributed run: returns merged statistics. */
  def run(spark: SparkSession, g: LocalGraph, cfg: MceConfig,
          parallelism: Int = 0): MceStats = {
    val prep = Engine.prepare(g, cfg)
    val direct = Engine.emitDirect(prep, CliqueSink.discard)
    solvePartitions(spark, prep, parallelism)(Engine.solveUnits(_, _, CliqueSink.discard))
      .foldLeft(direct)(_ merge _)
  }

  /** Distributed run that also returns every maximal clique (original ids),
    * in the canonical order of [[RefBK.canon]], as [[Engine.collectLocal]] does.
    */
  def runCollect(spark: SparkSession, g: LocalGraph, cfg: MceConfig,
                 parallelism: Int = 0): (Vector[Vector[Int]], MceStats) = {
    val prep = Engine.prepare(g, cfg)
    val direct = new CollectSink
    val directStats = Engine.emitDirect(prep, direct)
    val parts = solvePartitions(spark, prep, parallelism) { (p, units) =>
      val collect = new CollectSink
      (Engine.solveUnits(p, units, collect), collect.cliques.toArray)
    }
    val stats = parts.foldLeft(directStats)(_ merge _._1)
    (RefBK.canon(direct.cliques ++ parts.iterator.flatMap(_._2)), stats)
  }

  /** Broadcast `prep` and solve its level-1 units in `parts` tasks, where
    * `parts` is `parallelism` (4 × the default parallelism when 0) capped by
    * the unit count: task p solves the stripe p, p + parts, p + 2·parts, ….
    * Returns one result per task.
    */
  private def solvePartitions[R: ClassTag](spark: SparkSession, prep: Prepared, parallelism: Int)(
      solve: (Prepared, Array[Int]) => R): Array[R] = {
    val sc = spark.sparkContext
    val par = if (parallelism > 0) parallelism else sc.defaultParallelism * 4
    val units = prep.units
    val parts = math.max(1, math.min(par, units))
    val bc = sc.broadcast(prep)
    sc.parallelize(0 until parts, parts)
      .map(p => solve(bc.value, Array.range(p, units, parts)))
      .collect()
  }
}
