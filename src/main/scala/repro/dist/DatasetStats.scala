package repro.dist

import repro.graph.{Degeneracy, ForwardLists, GraphGen, LocalGraph, TrussOrder}

/** Table I statistics for one dataset: |V|, |E|, δ, τ, ρ and the paper's
  * complexity condition δ ≥ max{3, τ + 3·lnρ/ln3}.
  */
final case class DatasetStatsRow(
    name: String,
    fullName: String,
    n: Long,
    m: Long,
    delta: Int,
    tau: Int,
    rho: Double,
    conditionHolds: Boolean
)

object DatasetStats {

  def compute(name: String, fullName: String, g: LocalGraph): DatasetStatsRow = {
    val n = g.n.toLong
    val m = g.m.toLong
    val degeneracy = Degeneracy.compute(g)
    val delta = degeneracy.delta
    val tau = TrussOrder.compute(ForwardLists(g, degeneracy.pos)).bound
    val rho = if (n == 0) 0.0 else m.toDouble / n.toDouble
    val cond = delta >= math.max(3.0, tau + 3.0 * math.log(rho) / math.log(3.0))
    DatasetStatsRow(name, fullName, n, m, delta, tau, rho, cond)
  }

  def computeSuite(): Seq[DatasetStatsRow] =
    GraphGen.paperSuite.map(cfg => compute(cfg.name, cfg.fullName, GraphGen.generate(cfg)))
}
