package repro.mce

/** Mutable per-run counters mirroring the statistics the paper reports:
  * `calls` is the number of branch nodes explored (the paper's "#Calls"),
  * `etApplied` the branches solved by early termination (the paper's b₀),
  * `plexBranches` those whose candidate graph is a t-plex (the paper's b).
  */
final class Counters extends Serializable {
  var calls: Long = 0L
  var etApplied: Long = 0L
  var plexBranches: Long = 0L
  var level1Branches: Long = 0L

  def toStats(sink: CountingSink): MceStats =
    MceStats(sink.count, sink.sumSize, sink.maxSize, calls, etApplied, plexBranches, level1Branches)
}

/** Immutable summary of one enumeration run. */
final case class MceStats(
    cliques: Long,
    sumSize: Long,
    maxSize: Int,
    calls: Long,
    etApplied: Long,
    plexBranches: Long,
    level1Branches: Long
) extends Serializable {
  def merge(o: MceStats): MceStats = MceStats(
    cliques + o.cliques,
    sumSize + o.sumSize,
    math.max(maxSize, o.maxSize),
    calls + o.calls,
    etApplied + o.etApplied,
    plexBranches + o.plexBranches,
    level1Branches + o.level1Branches
  )
}

/** Receives maximal cliques as (buffer, length) — implementations must copy. */
trait CliqueSink {
  def emit(vertices: Array[Int], len: Int): Unit
}

object CliqueSink {
  /** Drops every clique, for runs that need only the statistics. */
  val discard: CliqueSink = (_, _) => ()
}

/** Count-only sink for benchmarks. */
final class CountingSink extends CliqueSink {
  var count: Long = 0L
  var sumSize: Long = 0L
  var maxSize: Int = 0
  override def emit(vertices: Array[Int], len: Int): Unit = {
    count += 1; sumSize += len; if (len > maxSize) maxSize = len
  }
}

/** Collects cliques (sorted vertex ids), for tests and `runCollect`. */
final class CollectSink extends CliqueSink {
  val cliques = new scala.collection.mutable.ArrayBuffer[Array[Int]]()
  override def emit(vertices: Array[Int], len: Int): Unit = {
    val c = java.util.Arrays.copyOf(vertices, len)
    java.util.Arrays.sort(c)
    cliques += c
  }
}

/** Forwards both to a counting and an arbitrary inner sink. */
final class TeeSink(a: CliqueSink, b: CliqueSink) extends CliqueSink {
  override def emit(vertices: Array[Int], len: Int): Unit = { a.emit(vertices, len); b.emit(vertices, len) }
}
