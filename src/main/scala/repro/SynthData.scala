package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

/** Synthetic input graphs as edge DataFrames (src, dst), already normalized
  * (src < dst, no loops/dupes), from the deterministic generators of
  * repro.graph.GraphGen.
  */
object SynthData {

  /** Barabási–Albert preferential-attachment graph. */
  def baGraph(spark: SparkSession, n: Int, mPerVertex: Int, seed: Long = 8): DataFrame =
    repro.dist.GraphOps.toEdgesDf(spark, repro.graph.GraphGen.ba(n, mPerVertex, seed))
}
