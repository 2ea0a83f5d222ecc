package repro.dist

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}
import repro.graph.GraphGen
import repro.mce.MceConfig

/** DataFrame graph operations cross-checked against DuckDB via the Oracle:
  * a wrong Catalyst expression (or a broken normalization/degree/triangle
  * pipeline) fails here with a row-level diff, not just "it ran".
  */
class GraphOpsOracleSpec extends SparkSpec {
  import spark.implicits._

  private def rawEdges(seed: Int) = {
    val rng = new scala.util.Random(seed)
    // Deliberately messy: duplicates, reversed duplicates, self-loops.
    val base = List.fill(300)((rng.nextInt(40), rng.nextInt(40)))
    (base ++ base.take(50).map(_.swap) ++ List((1, 1), (7, 7)))
      .toDF("src", "dst")
  }

  test("normalize matches DuckDB DISTINCT least/greatest") {
    val raw = rawEdges(1)
    Oracle.assertEquivalent(
      GraphOps.normalize(raw),
      """SELECT DISTINCT least(src::INT, dst::INT) AS src,
        |                greatest(src::INT, dst::INT) AS dst
        |FROM raw WHERE src::INT <> dst::INT""".stripMargin,
      "raw" -> raw
    )
  }

  test("degrees match DuckDB") {
    val e = GraphOps.normalize(rawEdges(2)).cache()
    Oracle.assertEquivalent(
      GraphOps.degrees(e),
      """SELECT v, COUNT(*) AS degree FROM (
        |  SELECT src::INT AS v FROM e UNION ALL SELECT dst::INT AS v FROM e
        |) GROUP BY v""".stripMargin,
      "e" -> e
    )
  }

  test("triangle count matches DuckDB three-way join") {
    val e = GraphOps.normalize(rawEdges(3)).cache()
    val cnt = GraphOps.triangleCount(e)
    Oracle.assertEquivalent(
      Seq(cnt).toDF("tri"),
      """SELECT COUNT(*) AS tri
        |FROM e e1, e e2, e e3
        |WHERE e1.dst::INT = e2.src::INT
        |  AND e1.src::INT = e3.src::INT
        |  AND e2.dst::INT = e3.dst::INT""".stripMargin,
      "e" -> e
    )
  }

  test("triangle count matches the sequential structure") {
    val g = GraphGen.randomGnp(45, 0.25, 4)
    val e = GraphOps.toEdgesDf(spark, g)
    var seq = 0L
    for (eid <- 0 until g.m) seq += g.commonNeighbors(g.eu(eid), g.ev(eid))
      .count(w => w > g.ev(eid)) // count each triangle at its smallest edge
    assert(GraphOps.triangleCount(e) == seq)
  }

  test("toLocalGraph round-trips through a DataFrame") {
    val g = GraphGen.randomGnp(30, 0.3, 5)
    val back = GraphOps.toLocalGraph(GraphOps.toEdgesDf(spark, g), g.n)
    assert(back.edgePairs.toSeq == g.edgePairs.toSeq)
  }

  test("clique pair verification agrees with DuckDB") {
    val g = GraphGen.randomGnp(25, 0.35, 6)
    val (cliquesDf, _) = DistMCE.runCollect(spark, g, MceConfig.hbbmcPP)
    val e = GraphOps.toEdgesDf(spark, g)
    val mem = GraphOps.memberships(cliquesDf).cache()
    // Every within-clique pair must be an edge: bad-pair count is 0 on both
    // engines.
    assert(GraphOps.nonEdgePairCount(cliquesDf, e) == 0L)
    Oracle.assertEquivalent(
      Seq(GraphOps.nonEdgePairCount(cliquesDf, e)).toDF("bad"),
      """SELECT COUNT(*) AS bad
        |FROM mem l JOIN mem r ON l.cid = r.cid AND l.v::INT < r.v::INT
        |LEFT JOIN e ON e.src::INT = l.v::INT AND e.dst::INT = r.v::INT
        |WHERE e.src IS NULL""".stripMargin,
      "mem" -> mem, "e" -> e
    )
  }

  test("clique size histogram agrees with DuckDB") {
    val g = GraphGen.randomGnp(28, 0.3, 7)
    val (cliquesDf, _) = DistMCE.runCollect(spark, g, MceConfig.hbbmcPP)
    val mem = GraphOps.memberships(cliquesDf).cache()
    val hist = mem.groupBy("cid").agg(count(lit(1)).as("sz"))
      .groupBy("sz").agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      hist,
      """SELECT sz, COUNT(*) AS cnt FROM (
        |  SELECT cid, COUNT(*) AS sz FROM mem GROUP BY cid
        |) GROUP BY sz""".stripMargin,
      "mem" -> mem
    )
  }

  test("duplicateCount is zero for enumeration output") {
    val g = GraphGen.randomGnp(30, 0.3, 8)
    val (cliquesDf, _) = DistMCE.runCollect(spark, g, MceConfig.hbbmcPP)
    assert(GraphOps.duplicateCount(cliquesDf) == 0L)
  }

  test("extenderCount flags a deliberately non-maximal clique") {
    val g = GraphGen.randomGnp(20, 0.5, 9)
    val e = GraphOps.toEdgesDf(spark, g)
    val (cliquesDf, _) = DistMCE.runCollect(spark, g, MceConfig.hbbmcPP)
    assert(GraphOps.extenderCount(cliquesDf, e) == 0L)
    // Drop one vertex from the largest clique: must now have an extender.
    val broken = cliquesDf.where(size(col("clique")) >= 3)
      .limit(1)
      .select(slice(col("clique"), 1, 2).as("clique"))
    assert(GraphOps.extenderCount(broken, e) > 0L)
  }
}
