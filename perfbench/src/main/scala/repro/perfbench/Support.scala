package repro.perfbench

import java.lang.management.ManagementFactory

import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import repro.core.{MomentBounder, MomentState}

/** One named number of the result line. */
final case class Metric(name: String, value: Double, unit: String)

/** What one benchmark run hands back to [[Main]] for printing: the
  * result, the scale it ran at (`scale`, JSON fields) and free-text notes.
  */
final case class Outcome(
    correct: Boolean,
    attempted: Long,
    failed: Long,
    metrics: Seq[Metric],
    scale: Seq[(String, String)],
    notes: Seq[String])

/** One completed (or failed) query of a closed loop. */
final case class Sample(query: String, startNs: Long, endNs: Long, ok: Boolean, rowsRead: Long) {
  def latencyNs: Long = endNs - startNs
}

object Stats {

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile of `xs` at `p` ∈ [0, 1]. */
  def quantile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "quantile of an empty sample")
    val s   = xs.sorted.toIndexedSeq
    val pos = p * (s.length - 1)
    val lo  = pos.toInt
    val hi  = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def geomean(xs: Seq[Double]): Double = math.exp(xs.map(math.log).sum / xs.length)

  /** The highest of p50, p90, p99, p99.9, … with at least ten samples of
    * `xs` above it. Returns (value, percentile); with fewer than 20 samples
    * no such percentile exists and the maximum stands in, as p100.
    */
  def tail(xs: Seq[Double]): (Double, Double) = {
    val n = xs.size
    Seq(0.5, 0.9, 0.99, 0.999, 0.9999).filter(p => n * (1 - p) >= 10 - 1e-9).lastOption match {
      case Some(p) => (quantile(xs, p), 100 * p)
      case None    => (xs.max, 100.0)
    }
  }
}

object Clock {
  def seconds[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = body
    (r, (System.nanoTime() - t0) / 1e9)
  }
}

/** JVM-wide counters read from the platform MXBeans. */
object Jvm {
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def allocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  /** Bytes allocated so far by all live threads. */
  def allocatedBytesAllThreads(): Long = threads.getThreadAllocatedBytes(threads.getAllThreadIds).filter(_ > 0).sum

  /** (collection count, collection milliseconds) summed over all collectors. */
  def gc(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.asScala
    (beans.map(_.getCollectionCount).sum, beans.map(_.getCollectionTime).sum)
  }

  /** Heap in use after a full collection, in MB. */
  def heapUsedMbAfterGc(): Double = {
    System.gc(); System.gc()
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / 1e6
  }

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / 1e6

  /** GC count and time from JVM start to the end of the measured loop (a
    * loop alone can pass without any collection), and the allocation rate
    * during the loop, which sets how often the loop itself collects.
    */
  def metrics(gcCount: Long, gcMs: Long, loopAllocMbPerS: Double): Seq[Metric] = Seq(
    Metric("jvm.gc_ms", gcMs.toDouble, "ms"),
    Metric("jvm.gc_count", gcCount.toDouble, "count"),
    Metric("jvm.loop_alloc_mb_per_s", loopAllocMbPerS, "MB/s"))
}

/** Decorates a bounder to count and time its bound evaluations. One
  * `interval` call is one `lbound` plus one `rbound`; `calls` counts
  * intervals. Single-threaded use only (FastFrame and the Spark driver
  * side both call bounders from one thread).
  */
final class TimingBounder(inner: MomentBounder) extends MomentBounder {
  var nanos: Long = 0L
  var calls: Long = 0L

  override def name: String = inner.name

  override def lbound(s: MomentState, a: Double, b: Double, n: Long, delta: Double): Double = {
    val t0 = System.nanoTime()
    val r  = inner.lbound(s, a, b, n, delta)
    nanos += System.nanoTime() - t0
    calls += 1
    r
  }

  override def rbound(s: MomentState, a: Double, b: Double, n: Long, delta: Double): Double = {
    val t0 = System.nanoTime()
    val r  = inner.rbound(s, a, b, n, delta)
    nanos += System.nanoTime() - t0
    r
  }

  def reset(): Unit = { nanos = 0L; calls = 0L }
}

/** In-memory span recorder for the traced run. Spans nest through a
  * stack, so a span's parent is the span open when it started; `request`
  * groups the spans of one query. Written out once, when the run ends.
  */
final class Tracer {
  import Tracer.Span

  private val spans  = ArrayBuffer.empty[Span]
  private var stack  = List.empty[Int]
  private var nextId = 0
  var request: Long  = -1L

  def span[A](name: String)(body: => A): A = {
    val id     = nextId
    val parent = stack.headOption.getOrElse(-1)
    nextId += 1
    stack = id :: stack
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(id, parent, request, name, t0, System.nanoTime())
      stack = stack.tail
    }
  }

  /** Per span name: (count, total ms, self ms), self = duration minus the
    * part covered by child spans.
    */
  def summary: Seq[(String, Int, Double, Double)] = {
    val childNs = spans.groupBy(_.parent).map { case (p, cs) => p -> cs.map(s => s.endNs - s.startNs).sum }
    spans.groupBy(_.name).toSeq.sortBy(_._1).map { case (name, ss) =>
      val total = ss.map(s => s.endNs - s.startNs).sum
      val self  = ss.map(s => s.endNs - s.startNs - childNs.getOrElse(s.id, 0L)).sum
      (name, ss.size, total / 1e6, self / 1e6)
    }
  }

  def write(path: java.nio.file.Path): Unit = {
    java.nio.file.Files.createDirectories(path.getParent)
    val out = new java.io.PrintWriter(path.toFile, "UTF-8")
    try spans.foreach { s =>
      out.println(s"""{"id":${s.id},"parent":${s.parent},"request":${s.request},""" +
        s""""name":${Json.str(s.name)},"start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally out.close()
  }
}

object Tracer {
  final case class Span(id: Int, parent: Int, request: Long, name: String, startNs: Long, endNs: Long)
}

object Json {
  def str(s: String): String =
    "\"" + s.flatMap {
      case '"'          => "\\\""
      case '\\'         => "\\\\"
      case c if c < ' ' => f"\\u${c.toInt}%04x"
      case c            => c.toString
    } + "\""

  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"metric value is not finite: $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else java.lang.Double.toString(x)
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}

/** The closed loop: one client issues its next query only once the
  * previous answer has returned and been checked.
  */
object ClosedLoop {

  /** Run `issue(i)` for i = 0, 1, … until `seconds` have passed.
    * Exceptions count as failed samples rather than ending the run.
    */
  def run(seconds: Double, names: Int => String)(issue: Int => (Boolean, Long)): IndexedSeq[Sample] = {
    val out = ArrayBuffer.empty[Sample]
    val end = System.nanoTime() + (seconds * 1e9).toLong
    var i   = 0
    while (System.nanoTime() < end) {
      val t0 = System.nanoTime()
      val (ok, rows) =
        try issue(i)
        catch { case e: Exception => Console.err.println(s"query ${names(i)} threw: $e"); (false, 0L) }
      out += Sample(names(i), t0, System.nanoTime(), ok, rows)
      i += 1
    }
    out.toIndexedSeq
  }

  /** Warm up by issuing whole cycles of `cycle` queries in windows of at
    * least `windowS` seconds, until the mean cycle time of two windows in a
    * row is within `tol` of the window before, after at least `minS` and at
    * most `maxS` seconds. Returns (windows, seconds).
    */
  def warmUp(cycle: Int, windowS: Double, minS: Double, maxS: Double, tol: Double)(
      issue: Int => Unit): (Int, Double) = {
    val start   = System.nanoTime()
    def elapsed = (System.nanoTime() - start) / 1e9
    var prev    = Double.NaN
    var windows = 0
    var steady  = 0
    var i       = 0
    while (!(steady >= 2 && elapsed >= minS) && elapsed < maxS) {
      val t0     = System.nanoTime()
      var cycles = 0
      while (cycles == 0 || (System.nanoTime() - t0) / 1e9 < windowS) {
        var k = 0
        while (k < cycle) { issue(i); i += 1; k += 1 }
        cycles += 1
      }
      val perCycle = (System.nanoTime() - t0).toDouble / cycles
      windows += 1
      steady = if (math.abs(perCycle - prev) < tol * prev) steady + 1 else 0
      prev = perCycle
    }
    (windows, elapsed)
  }

  /** Splits a loop into windows of whole cycles of `cycle` round-robin
    * queries, each window at least `windowS` seconds long; a trailing part
    * shorter than that is dropped. Returns each window's samples.
    */
  def windows(samples: IndexedSeq[Sample], cycle: Int, windowS: Double): IndexedSeq[IndexedSeq[Sample]] = {
    val out   = ArrayBuffer.empty[IndexedSeq[Sample]]
    var first = 0
    var i     = cycle
    while (i <= samples.size) {
      if ((samples(i - 1).endNs - samples(first).startNs) / 1e9 >= windowS) {
        out += samples.slice(first, i)
        first = i
      }
      i += cycle
    }
    out.toIndexedSeq
  }

  /** Wall seconds from the first query's start to the last one's end. */
  def seconds(samples: IndexedSeq[Sample]): Double = (samples.last.endNs - samples.head.startNs) / 1e9

  /** The end-to-end metrics of a loop, over its [[windows]] of whole
    * cycles of `cycle` round-robin queries (so every query weighs the same
    * in every window). `latency_p50_ms` and `query_ms_geomean` are taken in
    * each window and averaged over the windows; the tail is taken in each
    * block of `tailWindows` consecutive windows (enough samples for p90 on
    * the slowest workload) and averaged over the blocks. A shared host
    * switches between speeds up to 40% apart every few seconds; a median
    * over the whole run jumps to whichever speed held more than half of it,
    * while an average of per-window figures moves with the share of time
    * spent at each speed.
    */
  def endToEnd(all: IndexedSeq[Sample], cycle: Int, windowS: Double, tailWindows: Int)
      : (Seq[Metric], Seq[String]) = {
    val ws = {
      val w = windows(all, cycle, windowS)
      if (w.nonEmpty) w else IndexedSeq(all.take(math.max(cycle, all.size / cycle * cycle)))
    }
    val blocks = {
      val b = ws.grouped(tailWindows).filter(_.size == tailWindows).toSeq
      if (b.nonEmpty) b else Seq(ws)
    }
    def latMs(ss: Seq[Sample]) = ss.map(_.latencyNs / 1e6)
    def perQuery(ss: Seq[Sample]) = ss.groupBy(_.query).toSeq.sortBy(_._1)
      .map { case (q, qs) => q -> Stats.median(latMs(qs)) }
    def mean(xs: Seq[Double]) = xs.sum / xs.size
    val samples = ws.flatten
    val tails   = blocks.map(b => Stats.tail(latMs(b.flatten)))
    val failed  = all.count(!_.ok)
    val metrics = Seq(
      Metric("qps", samples.count(_.ok) / ws.map(seconds).sum, "1/s"),
      Metric("latency_p50_ms", mean(ws.map(w => Stats.median(latMs(w)))), "ms"),
      Metric("latency_tail_ms", mean(tails.map(_._1)), "ms"),
      Metric("query_ms_geomean", mean(ws.map(w => Stats.geomean(perQuery(w).map(_._2)))), "ms"),
      Metric("rows_read_per_query", samples.map(_.rowsRead.toDouble).sum / samples.size, "rows"))
    def pct(p: Double) = s"p${BigDecimal(p).underlying.stripTrailingZeros.toPlainString}"
    val notes = Seq(
      ws.map(w => f"${seconds(w) * 1e3 / (w.size / cycle)}%.1f")
        .mkString(s"${ws.size} windows of >= $windowS s; cycle ms by window: ", " ", ""),
      s"latency_tail_ms is the mean over ${blocks.size} blocks of ${tails.map(t => pct(t._2)).distinct.mkString("/")} " +
        s"(${blocks.map(_.map(_.size).sum).min} to ${blocks.map(_.map(_.size).sum).max} queries a block)",
      f"error_rate ${failed.toDouble / all.size}%.6f ($failed%d of ${all.size}%d queries wrong or thrown)",
      perQuery(samples).map { case (q, ms) => f"$q=$ms%.3f" }.mkString("median ms per query over the run: ", " ", ""))
    (metrics, notes)
  }
}
