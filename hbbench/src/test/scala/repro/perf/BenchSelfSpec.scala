package repro.perf

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.graph.GraphGen
import repro.mce.{Engine, MceConfig, RefBK}

/** Checks that the benchmark measures what it claims to measure. Run with
  * `sbt test` in hbbench/.
  */
class BenchSelfSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder
    .master("local[2]")
    .appName("hbbench-test")
    .config("spark.ui.enabled", "false")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  private def tiny(seed: Long) = Workloads.Input(s"tiny$seed", GraphGen.randomGnp(40, 0.3, seed))

  test("untraced and traced passes count the cliques RefBK finds, with equal #Calls") {
    for (seed <- 1L to 5L; (name, cfg) <- Passes.configs) {
      val in = tiny(seed)
      val want = RefBK.enumerate(in.graph).size.toLong
      val untraced = Passes.local(Seq(in), cfg).outcomes
      val layers = new Trace.Layers(name)
      val traced = Trace.pass(Seq(in), cfg, layers)
      assert(untraced.map(_.cliques) == Seq(want), s"$name on seed $seed")
      assert(traced == untraced, s"$name on seed $seed")
      assert(layers.cliques == want)
    }
  }

  test("HBBMC++ level-1 candidate sets stay within the truss bound") {
    val in = Workloads.generate("dense", 0).head
    val layers = new Trace.Layers("hbbmcpp")
    Trace.pass(Seq(in), MceConfig.hbbmcPP, layers)
    assert(layers.cMax > 0)
    assert(layers.cOverBound == 0)
  }

  test("the hubs workload keeps an anchor with more than 4,000 neighbors") {
    for (seed <- Seq(0L, 7L)) {
      val layers = new Trace.Layers("hbbmcpp")
      Trace.pass(Workloads.generate("hubs", seed), MceConfig.hbbmcPP, layers)
      assert(layers.nLocMax > 4000, s"seed $seed")
    }
  }

  test("a seed shifts every suite generator seed; seed 0 is the repository's datasets") {
    val base = Workloads.generate("suite", 0).map(_.graph)
    assert(base.map(_.m) == GraphGen.paperSuite.filterNot(c => Set("DG", "OR")(c.name)).map(GraphGen.generate).map(_.m))
    val shifted = Workloads.generate("suite", 3).map(_.graph)
    assert(base.zip(shifted).forall { case (a, b) => !(a.eu sameElements b.eu) })
    val again = Workloads.generate("suite", 3).map(_.graph)
    assert(shifted.zip(again).forall { case (a, b) => (a.eu sameElements b.eu) && (a.ev sameElements b.ev) })
  }

  test("a seed relabels the dense graphs without changing their cliques") {
    val base = Workloads.generate("dense", 0)
    assert(base.map(_.graph.m) == Seq("DG", "OR").map(n => GraphGen.generate(GraphGen.byName(n)).m))
    val relabelled = Workloads.generate("dense", 3)
    assert(relabelled.map(_.graph.m) == base.map(_.graph.m))
    assert(base.zip(relabelled).forall { case (a, b) => !(a.graph.eu sameElements b.graph.eu) })
    val g = GraphGen.randomGnp(40, 0.3, 1)
    assert(RefBK.enumerate(Workloads.relabel(g, 3)).size == RefBK.enumerate(g).size)
  }

  test("DistMCE solves every level-1 unit exactly once and matches the sequential run") {
    val g = GraphGen.generate(GraphGen.byName("NA"))
    val call = DistTrace.call(spark, g)
    assert(call.unitsRead == Engine.prepare(g, MceConfig.hbbmcPP).units)
    assert(call.outcome == Passes.local(Seq(Workloads.Input("NA", g)), MceConfig.hbbmcPP).outcomes.head)
    assert(call.solveTasks.nonEmpty)
  }

  test("quartiles follow Python's statistics.quantiles") {
    assert(Stats.quartiles((1 to 10).map(_.toDouble)) == ((2.75, 8.25)))
    assert(Stats.quartiles(Seq(1.0, 2.0)) == ((0.75, 2.25)))
    assert(Stats.median(Seq(3.0, 1.0, 2.0, 4.0)) == 2.5)
  }
}
