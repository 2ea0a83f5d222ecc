package repro.perf

import org.apache.spark.BenchListenerBus
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.SparkSession
import repro.dist.DistMCE
import repro.mce.{Engine, MceConfig}

import scala.collection.mutable.ArrayBuffer

/** Spark-layer tracing of `DistMCE.run`: a listener registered by the
  * benchmark records every task of the call, and the call's last stage (the
  * one that solves the level-1 units) gives the per-task figures.
  */
object DistTrace {

  /** One finished task, as the listener saw it. */
  final case class TaskEnd(stage: Int, runMs: Long, schedDelayMs: Long, recordsRead: Long)

  private final class Recorder extends SparkListener {
    val tasks = new ArrayBuffer[TaskEnd]()
    var firstJobStartMs = Long.MaxValue
    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      firstJobStartMs = math.min(firstJobStartMs, e.time)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      val m = e.taskMetrics
      if (m != null) {
        val info = e.taskInfo
        val overhead = m.executorRunTime + m.executorDeserializeTime + m.resultSerializationTime +
          info.gettingResultTime
        tasks += TaskEnd(e.stageId, m.executorRunTime, math.max(0L, info.duration - overhead),
          m.shuffleReadMetrics.recordsRead)
      }
    }
  }

  /** What one traced `DistMCE.run` call did on the cluster. */
  final case class Call(wallNs: Long, driverMs: Long, solveTasks: Seq[TaskEnd], allRunMs: Long,
                        outcome: Passes.Outcome) {
    /** Level-1 units the solving stage read: each unit once. */
    def unitsRead: Long = solveTasks.map(_.recordsRead).sum
  }

  /** Runs `DistMCE.run` HBBMC++ on `g` with a listener attached. */
  def call(spark: SparkSession, g: repro.graph.LocalGraph): Call = {
    val sc = spark.sparkContext
    val rec = new Recorder
    sc.addSparkListener(rec)
    try {
      val startMs = System.currentTimeMillis()
      val t0 = System.nanoTime()
      val stats = DistMCE.run(spark, g, MceConfig.hbbmcPP)
      val wall = System.nanoTime() - t0
      BenchListenerBus.drain(sc)
      rec.synchronized {
        val last = if (rec.tasks.isEmpty) -1 else rec.tasks.map(_.stage).max
        Call(wall, rec.firstJobStartMs - startMs, rec.tasks.filter(_.stage == last).toSeq,
          rec.tasks.map(_.runMs).sum, Passes.Outcome.of(stats))
      }
    } finally sc.removeSparkListener(rec)
  }

  /** Bytes of the Java-serialized `Prepared` that `DistMCE.run` broadcasts
    * (before Spark's broadcast compression).
    */
  def broadcastBytes(g: repro.graph.LocalGraph): Long = {
    val prep = Engine.prepare(g, MceConfig.hbbmcPP)
    var n = 0L
    val counter = new java.io.OutputStream {
      override def write(b: Int): Unit = n += 1
      override def write(b: Array[Byte], off: Int, len: Int): Unit = n += len
    }
    val out = new java.io.ObjectOutputStream(counter)
    out.writeObject(prep)
    out.close()
    n
  }

  /** Per-layer metrics of one traced pass (one call per graph). */
  def metrics(calls: Seq[Call], broadcast: Long, cores: Int): Seq[Metric] = {
    val tasks = calls.flatMap(_.solveTasks)
    val runS = tasks.map(_.runMs / 1e3).sorted
    val p50 = if (runS.isEmpty) 0.0 else Stats.median(runS)
    val max = if (runS.isEmpty) 0.0 else runS.last
    val wallS = calls.map(_.wallNs).sum / 1e9
    Seq(
      Metric("dist.prepare_s", "s", calls.map(_.driverMs).sum / 1e3),
      Metric("dist.broadcast_mb", "MB", broadcast / 1e6),
      Metric("dist.tasks", "count", tasks.size.toDouble),
      Metric("dist.task_s_p50", "s", p50),
      Metric("dist.task_s_max", "s", max),
      // Task times have 1 ms resolution; a median below that counts as 1 ms.
      Metric("dist.skew", "ratio", max / math.max(p50, 1e-3)),
      Metric("dist.sched_delay_s", "s", tasks.map(_.schedDelayMs).sum / 1e3),
      Metric("dist.busy_frac", "ratio", calls.map(_.allRunMs).sum / 1e3 / (cores * wallS)),
    )
  }
}
