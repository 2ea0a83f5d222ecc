package repro.perf

import org.apache.spark.sql.SparkSession
import repro.dist.DistMCE
import repro.mce.{CliqueSink, Engine, MceConfig, MceStats}

/** Untraced passes: one pass runs one configuration over every graph of a
  * workload through the public entry points, exactly as a user would.
  */
object Passes {

  /** The counts a pass must reproduce on one graph. */
  final case class Outcome(cliques: Long, calls: Long) {
    override def toString: String = s"$cliques/$calls"
  }
  object Outcome {
    def of(s: MceStats): Outcome = Outcome(s.cliques, s.calls)
  }

  /** Wall time, bytes allocated by the calling thread, and per-graph counts. */
  final case class Pass(seconds: Double, allocBytes: Long, outcomes: Seq[Outcome])

  /** The configurations the benchmark runs, by the name its metrics use. */
  val configs: Seq[(String, MceConfig)] = Seq("hbbmcpp" -> MceConfig.hbbmcPP, "rdegen" -> MceConfig.rDegen)

  private val discard: CliqueSink = new CliqueSink {
    override def emit(vertices: Array[Int], len: Int): Unit = ()
  }

  private val threads = java.lang.management.ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocated(): Long = threads.getCurrentThreadAllocatedBytes

  private def timed(inputs: Seq[Workloads.Input])(run: Workloads.Input => MceStats): Pass = {
    System.gc() // start every pass from the same heap state
    val a0 = allocated()
    val t0 = System.nanoTime()
    val outcomes = inputs.map(in => Outcome.of(run(in)))
    val t1 = System.nanoTime()
    Pass((t1 - t0) / 1e9, allocated() - a0, outcomes)
  }

  /** A sequential `Engine.runLocal` pass. */
  def local(inputs: Seq[Workloads.Input], cfg: MceConfig): Pass =
    timed(inputs)(in => Engine.runLocal(in.graph, cfg, discard))

  /** A `DistMCE.run` HBBMC++ pass. */
  def dist(spark: SparkSession, inputs: Seq[Workloads.Input]): Pass =
    timed(inputs)(in => DistMCE.run(spark, in.graph, MceConfig.hbbmcPP))
}
