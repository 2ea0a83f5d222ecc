package repro.perf

import repro.graph.GraphGen.DatasetConfig
import repro.graph.{GraphGen, LocalGraph}

/** The benchmark's workloads. Each is a list of generator configurations;
  * for `suite` and `hubs` the workload seed is added to every
  * `DatasetConfig.seed`, so seed 0 gives the repository's own datasets and
  * any other seed gives unseen graphs of the same shape. The program under
  * test receives only the generated graphs.
  */
object Workloads {

  /** One generated input graph, named after its dataset. */
  final case class Input(name: String, graph: LocalGraph)

  /** 20,000 vertices with twelve hubs of degree 5,000. Most hubs anchor an
    * edge to a larger hub, so about eleven anchors have more than 5,000
    * neighbors and a pair-rank matrix of about 110 MB, out of cache. With
    * twelve hubs rather than six, the cost varies less from seed to seed.
    */
  val hubsConfig: DatasetConfig =
    DatasetConfig("HB", "hubs", 20000, 4, 300, 4, 12, 0, 201, 6, 40, 60, 0.6, nHubs = 12, hubDeg = 5000)

  private val denseNames = Set("DG", "OR")

  val names: Seq[String] = Seq("suite", "dense", "hubs")

  def configs(workload: String): Seq[DatasetConfig] = workload match {
    case "suite" => GraphGen.paperSuite.filterNot(c => denseNames(c.name))
    case "dense" => GraphGen.paperSuite.filter(c => denseNames(c.name))
    case "hubs"  => Seq(hubsConfig)
    case other   => throw new IllegalArgumentException(
      s"unknown workload '$other' (expected one of ${names.mkString(", ")})")
  }

  /** The workload's graphs at `seed`. `dense` keeps the repository's DG and
    * OR and relabels their vertices by a permutation drawn from the seed
    * (none at seed 0): their work varies by about a quarter between generator
    * seeds, too much for a steady benchmark, while a relabeling changes every
    * id-dependent tie and choice but not the structure.
    */
  def generate(workload: String, seed: Long): Seq[Input] =
    if (workload == "dense") configs(workload).map(c => Input(c.name, relabel(GraphGen.generate(c), seed)))
    else configs(workload).map(c => Input(c.name, GraphGen.generate(c.copy(seed = c.seed + seed))))

  def relabel(g: LocalGraph, seed: Long): LocalGraph =
    if (seed == 0) g
    else {
      val perm = new scala.util.Random(seed).shuffle((0 until g.n).toVector).toArray
      LocalGraph.fromEdges(g.n, g.edgePairs.iterator.map { case (u, v) => (perm(u), perm(v)) })
    }
}
