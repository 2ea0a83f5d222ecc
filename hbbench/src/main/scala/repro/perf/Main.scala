package repro.perf

import org.apache.spark.sql.SparkSession
import repro.perf.Passes.Outcome

import scala.collection.mutable
import scala.concurrent.duration.Duration
import scala.concurrent.{Await, ExecutionContext, Future}
import scala.jdk.CollectionConverters._
import scala.util.Try
import scala.util.control.NonFatal

/** The HBBMC benchmark. See hbbench/README.md; `run.py` builds and starts it.
  *
  * End-to-end metric names have no dot and are measured untraced
  * (`--trace 0`); per-layer names are `<config>.<layer>.<metric>` or
  * `<layer>.<metric>` and come from the traced run (`--trace 1`). The last
  * line of standard output is one JSON object with the run's result.
  */
object Main {

  final case class Options(workload: String, seed: Long, seconds: Int, trace: Boolean,
                           expected: java.io.File, record: Boolean)

  private val usage =
    "usage: repro.perf.Main --workload <suite|dense|hubs> --seed <n> --seconds <s> " +
      "--trace <0|1> --expected <file> [--record]"

  def parse(args: Array[String]): Options = {
    val kv = mutable.Map[String, String]()
    var record = false
    var i = 0
    while (i < args.length) {
      args(i) match {
        case "--record" => record = true; i += 1
        case k if k.startsWith("--") && i + 1 < args.length => kv(k.drop(2)) = args(i + 1); i += 2
        case other => throw new IllegalArgumentException(s"unexpected argument '$other'")
      }
    }
    def get(k: String): String = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = get("workload")
    Workloads.configs(workload) // rejects an unknown name
    val trace = get("trace") match {
      case "0" => false
      case "1" => true
      case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, not '$t'")
    }
    val seconds = get("seconds").toInt
    require(seconds >= 1, "--seconds must be at least 1")
    val o = Options(workload, get("seed").toLong, seconds, trace, new java.io.File(get("expected")), record)
    require(!record || o.seed == 0, "--record writes the counts of seed 0 only")
    o
  }

  def main(args: Array[String]): Unit = {
    val opts =
      try parse(args)
      catch {
        case e: IllegalArgumentException =>
          Console.err.println(s"${e.getMessage}\n$usage")
          sys.exit(2)
      }
    val code =
      try { new Bench(opts).run(); 0 }
      catch { case NonFatal(e) => e.printStackTrace(); 1 }
    sys.exit(code)
  }
}

/** One benchmark run: set-up, a warm-up pass per configuration, then whole
  * rounds of passes until `--seconds` have passed.
  */
final class Bench(o: Main.Options) {
  private val cores = Runtime.getRuntime.availableProcessors
  private var attempted = 0
  private var failed = 0
  private val samples = mutable.LinkedHashMap[String, (String, mutable.ArrayBuffer[Double])]()
  /** Reference counts per configuration, one per graph of the workload. */
  private val refs = mutable.Map[String, Seq[Outcome]]()

  private def sample(name: String, unit: String, value: Double): Unit =
    samples.getOrElseUpdate(name, (unit, mutable.ArrayBuffer[Double]()))._2 += value

  private def log(msg: String): Unit = Console.err.println(s"[hbbench] $msg")

  /** Runs one operation. It fails if it throws, or if its per-graph counts
    * differ from `want` (when a reference exists); a failed operation yields
    * no sample.
    */
  private def op[T](what: String, want: Option[Seq[Outcome]])(body: => T)(outcomes: T => Seq[Outcome]): Option[T] = {
    attempted += 1
    val result =
      try Some(body)
      catch {
        case NonFatal(e) =>
          log(s"$what threw ${e}")
          e.printStackTrace()
          None
      }
    val ok = result.exists { r =>
      val got = outcomes(r)
      val same = want.forall(_ == got)
      if (!same) log(s"$what: counts ${got.mkString(" ")} differ from reference ${want.get.mkString(" ")}")
      same
    }
    if (!ok) failed += 1
    result.filter(_ => ok)
  }

  def run(): Unit = {
    val t0 = System.nanoTime()
    // Generation is repeated so that its median is steady; the program sees the last copy.
    var inputs: Seq[Workloads.Input] = Seq.empty
    val genS = Stats.median((1 to 3).map { _ =>
      val g0 = System.nanoTime()
      inputs = Workloads.generate(o.workload, o.seed)
      (System.nanoTime() - g0) / 1e9
    })
    val names = inputs.map(_.name)
    if (o.seed == 0 && !o.record) loadExpected(names)

    // Spark starts while the local configurations warm up.
    val w0 = System.nanoTime()
    val sparkStart = Future {
      val s = SparkSession.builder
        .master(s"local[$cores]")
        .appName("hbbench")
        .config("spark.ui.enabled", "false")
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.local.dir", new java.io.File(".bench_build/spark-local").getAbsolutePath)
        .getOrCreate()
      (s, (System.nanoTime() - w0) / 1e9)
    }(ExecutionContext.global)
    try {
      warmupLocal(inputs)
      for (hb <- refs.get("hbbmcpp"); rd <- refs.get("rdegen") if hb.map(_.cliques) != rd.map(_.cliques)) {
        log(s"HBBMC++ and RDegen disagree on clique counts: ${hb.mkString(" ")} vs ${rd.mkString(" ")}")
        failed += 1
      }
      val (spark, sparkS) = Await.result(sparkStart, Duration.Inf)
      // Local passes and Spark tasks run the same engine code from different
      // callers. Each warms up twice, on a few graphs after the first local
      // pass, so that the JIT has profiled both before anything is measured.
      for (_ <- 1 to 2) {
        op("warm-up dist", refs.get("hbbmcpp").map(_.take(3)))(Passes.dist(spark, inputs.take(3)))(_.outcomes)
        warmupLocal(inputs.take(2))
      }
      val warmupS = (System.nanoTime() - w0) / 1e9
      if (o.record) writeExpected(names)
      sample("setup.gen_s", "s", genS)
      sample("setup.spark_s", "s", sparkS)
      sample("setup.warmup_s", "s", warmupS)
      sample("setup_s", "s", genS + warmupS)

      val deadline = System.nanoTime() + o.seconds * 1000000000L
      var rounds = 0
      do {
        if (o.trace) tracedRound(spark, inputs) else round(spark, inputs)
        rounds += 1
      } while (System.nanoTime() < deadline)
      if (o.trace) for (c <- Seq("hbbmcpp", "rdegen", "dist")) overhead(c)
      report(spark, rounds, (System.nanoTime() - t0) / 1e9)
    } finally Try(Await.result(sparkStart, Duration.Inf)._1.stop())
    println(resultJson())
  }

  /** One pass of each local configuration; its counts become the reference
    * for the rest of the run when no recorded counts apply (any seed but 0).
    */
  private def warmupLocal(inputs: Seq[Workloads.Input]): Unit = {
    for ((name, cfg) <- Passes.configs)
      op(s"warm-up $name", refs.get(name).map(_.take(inputs.size)))(Passes.local(inputs, cfg))(_.outcomes)
        .foreach(p => refs.getOrElseUpdate(name, p.outcomes))
  }

  /** Passes of each configuration. A configuration repeats its pass until
    * it has spent `MinSeconds` in this round, so that short passes still
    * give enough samples.
    */
  private def round(spark: SparkSession, inputs: Seq[Workloads.Input]): Unit = {
    for ((name, cfg) <- Passes.configs)
      repeat(name, refs.get(name))(Passes.local(inputs, cfg)) { p =>
        sample(s"${name}_s", "s", p.seconds)
        if (name == "hbbmcpp") sample("hbbmcpp_alloc_mb", "MB", p.allocBytes / 1e6)
      }
    repeat("dist", refs.get("hbbmcpp"))(Passes.dist(spark, inputs))(p => sample("dist_s", "s", p.seconds))
  }

  private val MinSeconds = 1.0

  private def repeat(what: String, want: Option[Seq[Outcome]])(pass: => Passes.Pass)(record: Passes.Pass => Unit): Unit = {
    var spent = 0.0
    while (spent < MinSeconds)
      op(what, want)(pass)(_.outcomes) match {
        case Some(p) =>
          log(f"$what pass ${p.seconds}%.3f s")
          record(p)
          spent += p.seconds
        case None => spent = MinSeconds // a failed pass ends the repetition
      }
  }

  /** Each configuration untraced, then traced, so that the difference of
    * their medians is the tracing overhead.
    */
  private def tracedRound(spark: SparkSession, inputs: Seq[Workloads.Input]): Unit = {
    for ((name, cfg) <- Passes.configs) {
      op(name, refs.get(name))(Passes.local(inputs, cfg))(_.outcomes)
        .foreach(p => sample(s"${name}_s", "s", p.seconds))
      val layers = new Trace.Layers(name)
      op(s"traced $name", refs.get(name))(Trace.pass(inputs, cfg, layers))(identity).foreach { _ =>
        layers.metrics.foreach(m => sample(m.name, m.unit, m.value))
        sample(s"$name.trace.total_s", "s", layers.totalNs / 1e9)
      }
    }
    op("dist", refs.get("hbbmcpp"))(Passes.dist(spark, inputs))(_.outcomes)
      .foreach(p => sample("dist_s", "s", p.seconds))
    System.gc()
    op("traced dist", refs.get("hbbmcpp"))(inputs.map(in => DistTrace.call(spark, in.graph)))(_.map(_.outcome))
      .foreach { calls =>
      val broadcast = inputs.map(in => DistTrace.broadcastBytes(in.graph)).sum
      DistTrace.metrics(calls, broadcast, cores).foreach(m => sample(m.name, m.unit, m.value))
      sample("dist.trace.total_s", "s", calls.map(_.wallNs).sum / 1e9)
    }
    op("layer probe", None)(Trace.probe(inputs))(_ => Seq.empty)
      .foreach(_.foreach(m => sample(m.name, m.unit, m.value)))
  }

  private def median(name: String): Option[Double] = samples.get(name).map(s => Stats.median(s._2.toSeq))

  private def overhead(config: String): Unit =
    for (traced <- median(s"$config.trace.total_s"); untraced <- median(s"${config}_s"))
      sample(s"$config.trace.overhead_s", "s", traced - untraced)

  // ---------------------------------------------------------------- report

  private def reported: Seq[(String, String, Double)] =
    samples.toSeq
      .filter { case (name, _) => name.contains('.') == o.trace }
      .map { case (name, (unit, xs)) => (name, unit, Stats.median(xs.toSeq)) }

  private def report(spark: SparkSession, rounds: Int, wallS: Double): Unit = {
    val jvm = java.lang.management.ManagementFactory.getRuntimeMXBean.getInputArguments.asScala
      .filter(a => a.startsWith("-Xmx") || a.startsWith("-Xss"))
    println(s"# hbbench workload=${o.workload} seed=${o.seed} seconds=${o.seconds} " +
      s"trace=${if (o.trace) 1 else 0} rounds=$rounds wall_s=${f"$wallS%.1f"}")
    println(s"# nproc=$cores java=${System.getProperty("java.version")} ${jvm.mkString(" ")} " +
      s"spark=${spark.version} commit=${sys.props.getOrElse("hbbench.commit", "unknown")} " +
      s"source=${sys.props.getOrElse("hbbench.source", "unknown")}")
    println(s"# graphs: ${refs.getOrElse("hbbmcpp", Seq.empty).mkString(" ")} (cliques/#Calls per graph)")
    println(f"${"metric"}%-34s ${"unit"}%-12s ${"median"}%14s ${"q1"}%14s ${"q3"}%14s ${"n"}%4s")
    for ((name, (unit, xs)) <- samples) {
      val (q1, q3) = Stats.quartiles(xs.toSeq)
      val mark = if (name.contains('.') == o.trace) "" else "  (not in result)"
      println(f"$name%-34s $unit%-12s ${Stats.median(xs.toSeq)}%14.6f $q1%14.6f $q3%14.6f ${xs.size}%4d$mark")
    }
    println(s"# operations: attempted=$attempted failed=$failed")
  }

  private def resultJson(): String = {
    def num(x: Double): String = if (x.isNaN || x.isInfinite) "0" else x.toString
    val metrics = reported.map { case (name, unit, v) =>
      s""""$name": {"value": ${num(v)}, "unit": "$unit"}"""
    }
    s"""{"correct": ${failed == 0}, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${metrics.mkString(", ")}}}"""
  }

  // ------------------------------------------------------ recorded counts

  /** Lines `graph config cliques calls`, tab-separated; `#` starts a comment. */
  private def readExpected(): Map[(String, String), Outcome] =
    if (!o.expected.isFile) Map.empty
    else {
      val src = scala.io.Source.fromFile(o.expected, "UTF-8")
      try src.getLines().map(_.trim).filter(l => l.nonEmpty && !l.startsWith("#")).map { l =>
        val f = l.split("\t")
        (f(0), f(1)) -> Outcome(f(2).toLong, f(3).toLong)
      }.toMap
      finally src.close()
    }

  private def loadExpected(names: Seq[String]): Unit = {
    val rec = readExpected()
    for ((config, _) <- Passes.configs)
      refs(config) = names.map(n => rec.getOrElse((n, config),
        throw new IllegalStateException(s"${o.expected} records no counts for $n/$config")))
  }

  private def writeExpected(names: Seq[String]): Unit = {
    val rec = mutable.TreeMap[(String, String), Outcome]() ++ readExpected()
    for ((config, _) <- Passes.configs; outs <- refs.get(config); (n, out) <- names.zip(outs))
      rec((n, config)) = out
    val w = new java.io.PrintWriter(o.expected, "UTF-8")
    try {
      w.println("# Clique count and #Calls per (graph, config) at seed 0. Rewrite with --record.")
      w.println("# graph\tconfig\tcliques\tcalls")
      for (((n, c), out) <- rec) w.println(s"$n\t$c\t${out.cliques}\t${out.calls}")
    } finally w.close()
    log(s"recorded counts of ${names.mkString(",")} in ${o.expected}")
  }
}
