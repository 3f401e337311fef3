package repro.perfbench

import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.SparkSession

import repro.core.{Bounders, CountBound}
import repro.fastframe.{BlockBitmap, ColumnStore, Engine, EngineConfig, FrameQuery, QueryRun, Scramble}
import repro.flights.{FlightsData, FlightsQueries, TableHarness}

/** The FastFrame workloads. Every query uses Bernstein+RT, δ = 1e-15,
  * B = 40 000, 25-row blocks and ActivePeek (the `EngineConfig` defaults)
  * and starts at a seeded random block.
  */
object FastFrameBench {

  /** Scale of the measured relation: 1.5 M rows, 60 000 blocks. Set-up
    * is repeated [[SetupReps]] times per run, so the scale is what keeps a
    * run of every workload inside the benchmark's time budget.
    */
  val Sf: Double = 0.25

  /** Scale of the counter-determinism self-check. */
  val SelfCheckSf: Double = 0.01

  val SetupReps: Int = 5

  /** The measured loop is cut into windows of whole query cycles of at
    * least [[WindowS]] seconds, and its tail latency is taken over blocks
    * of [[TailWindows]] windows (see [[ClosedLoop.endToEnd]]).
    */
  val WindowS: Double = 1.0
  val TailWindows: Int = 4

  val BlockSize: Int = Scramble.DefaultBlockSize

  val Config: EngineConfig = EngineConfig(bounder = Bounders.BernsteinRT)

  /** A workload: its name and the queries it issues round-robin. */
  final case class Mode(name: String, queries: IndexedSeq[FrameQuery])

  val modes: Seq[Mode] = Seq(
    // Stop after 1–6 rounds: per-query fixed costs, bitmap pruning and the
    // lookahead dominate. F-q1 is issued twice a cycle, so that the median
    // of the mix falls inside its latencies (two rounds for every seed)
    // instead of between two queries'.
    Mode("ff-early", IndexedSeq(FlightsQueries.q1(), FlightsQueries.q1(),
      FlightsQueries.q2(), FlightsQueries.q4, FlightsQueries.q9)),
    // Fetch most blocks over many rounds: the row loop and recompute dominate.
    Mode("ff-full", IndexedSeq(FlightsQueries.q3(), FlightsQueries.q5, FlightsQueries.q6,
      FlightsQueries.q7, FlightsQueries.q8)))

  def shuffleSeed(seed: Long): Long = seed * 1000003L + 17L

  /** Seeded `startBlock` sequence of a run. */
  final class Starts(seed: Long, numBlocks: Int) {
    private val rng = new java.util.Random(seed * 7919L + 101L)
    def next(): Int = rng.nextInt(numBlocks)
  }

  /** A scramble with the Exact answer of every query, computed once. */
  final class Prepared(val scramble: Scramble, val exact: Map[String, QueryRun])

  def prepare(scramble: Scramble, mode: Mode): Prepared =
    new Prepared(scramble, (FlightsQueries.all ++ mode.queries).map(q => q.name -> Engine.runExact(scramble, q)).toMap)

  /** Same groups with the same means, up to summation order. */
  def sameAnswer(a: QueryRun, b: QueryRun): Boolean = {
    val bm = b.results.map(r => r.key -> r.bounds.mean).toMap
    a.results.size == bm.size && a.results.forall { r =>
      bm.get(r.key).exists(m => math.abs(m - r.bounds.mean) <= 1e-9 * math.max(1.0, math.abs(m)))
    }
  }

  /** Run one query and check it against the Exact answer. */
  def issue(p: Prepared, q: FrameQuery, startBlock: Int, cfg: EngineConfig = Config): (QueryRun, Boolean) = {
    val r = Engine.run(p.scramble, q, cfg.copy(startBlock = startBlock))
    (r, TableHarness.isCorrect(q, r, p.exact(q.name)))
  }

  /** Run one Exact query from `startBlock` and check it against the Exact
    * answer computed at set-up.
    */
  def issueExact(p: Prepared, q: FrameQuery, startBlock: Int): (QueryRun, Boolean) = {
    val r = Engine.runExact(p.scramble, q, startBlock)
    (r, sameAnswer(r, p.exact(q.name)))
  }

  /** A scramble, the base store it was built from, and the seconds spent
    * in `toStore` (generation included) and in `fromStore`.
    */
  final case class Build(scramble: Scramble, base: ColumnStore, ingestS: Double, scrambleS: Double)

  /** Generate → `toStore` → `fromStore`. */
  def build(spark: SparkSession, sf: Double, seed: Long): Build = {
    val (store, ingestS) = Clock.seconds(FlightsData.toStore(FlightsData.df(spark, sf, seed)))
    val (scr, scrambleS) = Clock.seconds(Scramble.fromStore(store, BlockSize, shuffleSeed(seed)))
    Build(scr, store, ingestS, scrambleS)
  }

  /** Deterministic counters (query, blocks, rows, rounds, bitmap probes)
    * of each query of `mode`, issued once from the seed's first start
    * blocks.
    */
  def counters(scr: Scramble, mode: Mode, seed: Long): Seq[(String, Long, Long, Int, Long)] = {
    val starts = new Starts(seed, scr.numBlocks)
    mode.queries.map { q =>
      val sb = starts.next()
      val m  = Engine.run(scr, q, Config.copy(startBlock = sb)).metrics
      (q.name, m.blocksFetched, m.rowsProcessed, m.rounds, m.bitmapProbes)
    }
  }

  /** Second-seed check at [[SelfCheckSf]]: a relation built from another
    * seed must still be answered correctly. Returns the wrong answers.
    */
  def otherSeedCheck(spark: SparkSession, mode: Mode, seed: Long): Seq[String] = {
    val p      = prepare(build(spark, SelfCheckSf, seed).scramble, mode)
    val starts = new Starts(seed, p.scramble.numBlocks)
    for {
      q <- mode.queries
      _ <- 0 until 2
      sb = starts.next()
      if !issue(p, q, sb)._2
    } yield s"wrong answer for ${q.name} from block $sb at sf=$SelfCheckSf, seed $seed"
  }

  def run(spark: SparkSession, mode: Mode, seed: Long, seconds: Double, trace: Boolean): Outcome = {
    val tracer = new Tracer
    val notes  = ArrayBuffer.empty[String]

    // The second-seed check runs first: besides checking answers on other
    // data it takes the first-use cost of Spark and the JIT out of set-up.
    val (wrong, checkS) = Clock.seconds(otherSeedCheck(spark, mode, seed + 1))

    // Set-up, repeated; only the last build is kept (and its base store
    // only when the traced sweep needs it). Each build's counters must
    // repeat exactly: the determinism self-check.
    var last: Build = null
    val setups = (0 until SetupReps).map { _ =>
      last = null
      val (b, s) = Clock.seconds(tracer.span("setup")(build(spark, Sf, seed)))
      last = if (trace) b else b.copy(base = null)
      (s, (b.ingestS, b.scrambleS), counters(b.scramble, mode, seed))
    }
    val repeat   = setups.map(_._3).distinct.size == 1
    val problems = ArrayBuffer.empty[String]
    if (!repeat) problems += s"counters differ between builds from seed $seed: ${setups.map(_._3)}"
    problems ++= wrong
    notes ++= problems
    notes += f"counters repeat over $SetupReps%d builds: $repeat; second-seed check: ${wrong.isEmpty} ($checkS%.2f s)"
    notes += setups.last._3.map { case (q, b, r, k, pr) => s"$q blocks=$b rows=$r rounds=$k probes=$pr" }
      .mkString("counters: ", "; ", "")
    val scr       = last.scramble
    val p         = prepare(scr, mode)
    val heapMb    = Jvm.heapUsedMbAfterGc()
    val starts    = new Starts(seed, scr.numBlocks)
    val queries   = mode.queries
    val nq        = queries.size
    val scale = Seq("sf" -> Json.num(Sf), "rows" -> scr.numRows.toString, "blocks" -> scr.numBlocks.toString,
      "block_rows" -> BlockSize.toString, "queries" -> Json.str(queries.map(_.name).mkString(",")))

    val (wWindows, wSecs) = ClosedLoop.warmUp(nq, windowS = 0.5, minS = 2.0, maxS = 3.5, tol = 0.05) { i =>
      issue(p, queries(i % nq), starts.next())
    }
    notes += f"warm-up: $wWindows%d windows, $wSecs%.2f s"

    def loop(secs: Double, cfg: EngineConfig, traced: Boolean): IndexedSeq[Sample] =
      ClosedLoop.run(secs, i => queries(i % nq).name) { i =>
        val q  = queries(i % nq)
        val sb = starts.next()
        if (traced) {
          tracer.request = i
          tracer.span("query") {
            val (r, ok) = tracer.span("engine.run")(issue(p, q, sb, cfg))
            (ok, r.metrics.rowsProcessed)
          }
        } else {
          val (r, ok) = issue(p, q, sb, cfg)
          (ok, r.metrics.rowsProcessed)
        }
      }

    val loopSecs = if (trace) seconds / 2 else seconds
    val alloc0 = Jvm.allocatedBytesAllThreads()
    val samples = loop(loopSecs, Config, traced = false)
    val allocMbPerS = (Jvm.allocatedBytesAllThreads() - alloc0) / 1e6 / ClosedLoop.seconds(samples)
    val (gcCount, gcMs) = Jvm.gc()
    val (e2e, loopNotes) = ClosedLoop.endToEnd(samples, nq, WindowS, TailWindows)
    notes ++= loopNotes

    val setupMetric = Metric("setup_s", Stats.median(setups.map(_._1)), "s")
    val heapMetric  = Metric("heap_used_mb", heapMb, "MB")
    notes += setups.map(s => f"${s._1}%.3f").mkString("setup_s runs: ", " ", "")

    var attempted = samples.size.toLong
    var failed    = samples.count(!_.ok).toLong
    if (!trace) {
      return Outcome(problems.isEmpty && failed == 0, attempted, failed,
        setupMetric +: e2e :+ heapMetric, scale, notes.toSeq)
    }

    // Traced half: same loop with spans and a timing bounder.
    val timing = new TimingBounder(Config.bounder)
    val tSamples = loop(loopSecs, Config.copy(bounder = timing), traced = true)
    attempted += tSamples.size
    failed += tSamples.count(!_.ok)
    val untracedP50 = Stats.median(samples.map(_.latencyNs.toDouble))
    val tracedP50   = Stats.median(tSamples.map(_.latencyNs.toDouble))
    tracer.request = -1L

    val layer = ArrayBuffer.empty[Metric]
    layer += Metric("trace.overhead_pct", 100.0 * (tracedP50 / untracedP50 - 1.0), "%")
    layer ++= Jvm.metrics(gcCount, gcMs, allocMbPerS)
    val sw = sweep(p, last.base, seed, tracer)
    layer ++= sw.metrics
    attempted += sw.attempted
    failed += sw.failed
    layer += Metric("flights.to_store_s", Stats.median(setups.map(_._2._1)), "s")
    layer += Metric("scramble.from_store_s", Stats.median(setups.map(_._2._2)), "s")

    val spk = SparkBench.sweep(spark, seed, tracer)
    layer ++= spk.metrics
    attempted += spk.attempted
    failed += spk.failed
    notes ++= spk.notes

    finishTrace(tracer, mode.name, seed, notes)
    Outcome(problems.isEmpty && failed == 0, attempted, failed, layer.toSeq, scale, notes.toSeq)
  }

  /** Result of a per-layer sweep: metrics plus the answers it checked. */
  final case class Sweep(metrics: Seq[Metric], attempted: Long, failed: Long, notes: Seq[String] = Nil)

  val SweepReps: Int = 5

  /** Per-layer sweep over all nine queries on one scramble: engine wall
    * time, allocation and counters per query, Exact time, the bounder's
    * share through a timing decorator, one stop-condition evaluation on
    * the final snapshot, and the scramble's permutation and bitmap stages
    * timed separately from `base`.
    */
  def sweep(p: Prepared, base: ColumnStore, seed: Long, tracer: Tracer): Sweep = {
    val metrics   = ArrayBuffer.empty[Metric]
    var attempted = 0L
    var failed    = 0L
    val timing    = new TimingBounder(Config.bounder)
    val cfg       = Config.copy(bounder = timing)
    val starts    = new Starts(seed, p.scramble.numBlocks)
    var shareMax  = 0.0
    var bounderNs = 0L
    var calls     = 0L
    var runs      = 0L

    for (q <- FlightsQueries.all) {
      val exactMs = (0 until SweepReps).map { _ =>
        val (r, ok) = tracer.span("engine.run_exact")(issueExact(p, q, starts.next()))
        attempted += 1; if (!ok) failed += 1
        r.metrics.wallMillis
      }
      val qStarts = Seq.fill(SweepReps)(starts.next())
      val approx = qStarts.map { sb =>
        timing.reset()
        val a0 = Jvm.allocatedBytes()
        val (r, ok) = tracer.span("engine.run")(issue(p, q, sb, cfg))
        val kb = (Jvm.allocatedBytes() - a0) / 1024.0
        attempted += 1; if (!ok) failed += 1
        shareMax = math.max(shareMax, timing.nanos.toDouble / r.metrics.wallNanos)
        bounderNs += timing.nanos; calls += timing.calls; runs += 1
        (r, kb)
      }
      val first  = approx.head._1
      val wallMs = Stats.median(approx.map(_._1.metrics.wallMillis))
      val snap   = first.results.map(_.bounds)
      val evalUs = tracer.span("stop.active_groups") {
        (0 until 200).foreach(_ => q.stop.activeGroups(snap))
        val n = 2000
        val t0 = System.nanoTime()
        (0 until n).foreach(_ => q.stop.activeGroups(snap))
        (System.nanoTime() - t0) / 1e3 / n
      }
      val n = q.name
      metrics ++= Seq(
        Metric(s"engine.$n.wall_ms", wallMs, "ms"),
        Metric(s"engine.$n.alloc_kb", Stats.median(approx.map(_._2)), "KiB"),
        Metric(s"engine.$n.rounds", first.metrics.rounds.toDouble, "count"),
        Metric(s"engine.$n.blocks", first.metrics.blocksFetched.toDouble, "count"),
        Metric(s"engine.$n.rows", first.metrics.rowsProcessed.toDouble, "count"),
        Metric(s"engine.$n.bitmap_probes", first.metrics.bitmapProbes.toDouble, "count"),
        Metric(s"engine.$n.exact_ms", Stats.median(exactMs), "ms"),
        Metric(s"engine.$n.approx_over_exact", wallMs / Stats.median(exactMs), "ratio"),
        Metric(s"stop.$n.eval_us", evalUs, "us"))
    }
    metrics ++= Seq(
      Metric("core.bounder_ns_per_call", bounderNs.toDouble / math.max(1L, calls), "ns"),
      Metric("core.bounder_calls_per_query", calls.toDouble / runs, "count"),
      Metric("core.bounder_share", shareMax, "ratio"),
      Metric("core.count_bound_ns_per_call", countBoundNs(), "ns"))

    // The two stages inside Scramble.fromStore, timed from outside on the
    // same base store: a seeded Fisher–Yates permutation applied with
    // ColumnStore.permuted, then one BlockBitmap per categorical column.
    val (permuted, permuteS) = Clock.seconds(tracer.span("scramble.permute") {
      val n    = base.numRows
      val perm = Array.tabulate(n)(identity)
      val rng  = new scala.util.Random(shuffleSeed(seed))
      var i = n - 1
      while (i > 0) {
        val j = rng.nextInt(i + 1)
        val t = perm(i); perm(i) = perm(j); perm(j) = t
        i -= 1
      }
      base.permuted(perm)
    })
    val (_, bitmapS) = Clock.seconds(tracer.span("scramble.bitmap_build") {
      permuted.cats.values.map(c => BlockBitmap.build(c.codes, c.cardinality, BlockSize))
    })
    metrics += Metric("scramble.permute_s", permuteS, "s")
    metrics += Metric("scramble.bitmap_build_s", bitmapS, "s")
    Sweep(metrics.toSeq, attempted, failed)
  }

  /** Mean cost of one Theorem-3 N⁺ evaluation over a spread of arguments. */
  private def countBoundNs(): Double = {
    var sink = 0L
    def batch(n: Int): Long = {
      val t0 = System.nanoTime()
      var i = 0
      while (i < n) {
        sink += CountBound.nUpper(100L + i % 5000, 40000L + i, 1500000L, 1e-17 / (1 + i % 150), 0.99)
        i += 1
      }
      System.nanoTime() - t0
    }
    batch(200000)
    val n = 1000000
    val ns = batch(n).toDouble / n
    if (sink == 42L) Console.err.println("") // keeps the loop from being elided
    ns
  }

  def finishTrace(tracer: Tracer, workload: String, seed: Long, notes: ArrayBuffer[String]): Unit = {
    val path = java.nio.file.Paths.get("perfbench", "out", s"trace-$workload-seed$seed.jsonl")
    tracer.write(path)
    notes += s"spans written to $path"
    tracer.summary.foreach { case (name, n, total, self) =>
      notes += f"span $name%-22s n=$n%6d total=$total%10.2f ms self=$self%10.2f ms"
    }
  }
}
