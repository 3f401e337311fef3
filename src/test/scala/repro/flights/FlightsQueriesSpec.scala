package repro.flights

import repro.SparkSpec
import repro.core.{Bounders, Interval}
import repro.fastframe._

/** Query definitions (paper Figure 5 / Table 4) and an end-to-end smoke
  * run of the full harness at small scale: every approximate answer must
  * agree with the exact answer (the paper's "a cool 0" failures).
  */
class FlightsQueriesSpec extends SparkSpec {

  private lazy val scr = FlightsScramble(spark, sf = 0.005)

  test("Table-4 stopping-condition mapping") {
    assert(FlightsQueries.q1().stop === StopCondition.RelativeWidth(0.5))
    assert(FlightsQueries.q2().stop === StopCondition.ThresholdSide(0.0))
    assert(FlightsQueries.q3().stop === StopCondition.TopKSeparated(2, largest = false))
    assert(FlightsQueries.q4.stop === StopCondition.ThresholdSide(10.0))
    assert(FlightsQueries.q5.stop === StopCondition.ThresholdSide(0.0))
    assert(FlightsQueries.q6.stop === StopCondition.TopKSeparated(5, largest = true))
    assert(FlightsQueries.q7.stop === StopCondition.GroupsOrdered)
    assert(FlightsQueries.q8.stop === StopCondition.TopKSeparated(1, largest = true))
    assert(FlightsQueries.q9.stop === StopCondition.TopKSeparated(1, largest = true))
  }

  test("query filters and groupings match Figure 5") {
    assert(FlightsQueries.q1("SFO").filter === Predicate.CatEq("Origin", "SFO"))
    assert(FlightsQueries.q3(900).filter === Predicate.NumGt("DepTime", 900.0))
    assert(FlightsQueries.q6.groupBy === Seq("DayOfWeek", "Origin"))
    assert(FlightsQueries.q7.filter === Predicate.CatEq("Airline", "HP"))
    assert(FlightsQueries.q7.groupBy === Seq("DayOfWeek"))
    assert(FlightsQueries.all.map(_.name) ===
      Seq("F-q1", "F-q2", "F-q3", "F-q4", "F-q5", "F-q6", "F-q7", "F-q8", "F-q9"))
  }

  for (q <- FlightsQueries.all) {
    test(s"${q.name}: Bernstein+RT answer matches exact at sf=0.005") {
      val run = Engine.run(scr, q, EngineConfig(bounder = Bounders.BernsteinRT, roundRows = 10000))
      val ex  = Engine.runExact(scr, q)
      assert(TableHarness.isCorrect(q, run, ex), s"${q.name} wrong answer")
    }
  }

  /** Deterministic cost counters per strategy and query (Bernstein+RT,
    * startBlock = 0): (blocksFetched, rowsProcessed, rounds, bitmapProbes).
    * Any change to what the engine fetches, how it probes the bitmaps or
    * when it recomputes moves these; a refactor must leave them as they are.
    * ActivePeek's probes count the bitmap words ANDed per group column for
    * each active group that a lookahead batch's mask takes in before it
    * saturates (every block of the batch marked), over the words that hold
    * blocks (3 of 16 in the last batch of 176 blocks), including rebuilding
    * the rest of the batch whenever the active set changes mid-batch.
    */
  private type Counters = Map[Strategy, Map[String, (Long, Long, Int, Long)]]

  private def counters(delta: Double, roundRows: Long): Counters =
    Seq(Strategy.ActivePeek, Strategy.ActiveSync, Strategy.Scan).map { st =>
      val cfg = EngineConfig(bounder = Bounders.BernsteinRT, delta = delta, roundRows = roundRows,
        strategy = st, startBlock = 0)
      st -> FlightsQueries.all.map { q =>
        val m = Engine.run(scr, q, cfg).metrics
        q.name -> ((m.blocksFetched, m.rowsProcessed, m.rounds, m.bitmapProbes))
      }.toMap
    }.toMap

  /** δ = 1e-15, roundRows = 10 000. At 30 000 rows most queries fetch
    * every block, so this pin mainly shows that no run stops early.
    */
  private val pinnedCounters: Counters = Map(
    Strategy.ActivePeek -> Map(
      "F-q1" -> ((1189L, 29725L, 3, 1200L)),
      "F-q2" -> ((1200L, 30000L, 3, 90L)),
      "F-q3" -> ((1200L, 30000L, 3, 35L)),
      "F-q4" -> ((800L, 20000L, 2, 806L)),
      "F-q5" -> ((1200L, 30000L, 3, 86L)),
      "F-q6" -> ((1200L, 30000L, 3, 2318L)),
      "F-q7" -> ((926L, 23150L, 3, 1238L)),
      "F-q8" -> ((1200L, 30000L, 3, 156L)),
      "F-q9" -> ((1200L, 30000L, 3, 35L))),
    Strategy.ActiveSync -> Map(
      "F-q1" -> ((1189L, 29725L, 3, 1200L)),
      "F-q2" -> ((1200L, 30000L, 3, 1298L)),
      "F-q3" -> ((1200L, 30000L, 3, 1203L)),
      "F-q4" -> ((800L, 20000L, 2, 806L)),
      "F-q5" -> ((1200L, 30000L, 3, 1336L)),
      "F-q6" -> ((1200L, 30000L, 3, 4284L)),
      "F-q7" -> ((926L, 23150L, 3, 2151L)),
      "F-q8" -> ((1200L, 30000L, 3, 1447L)),
      "F-q9" -> ((1200L, 30000L, 3, 1203L))),
    Strategy.Scan -> Map(
      "F-q1" -> ((1189L, 29725L, 3, 1200L)),
      "F-q2" -> ((1200L, 30000L, 3, 0L)),
      "F-q3" -> ((1200L, 30000L, 3, 0L)),
      "F-q4" -> ((800L, 20000L, 2, 806L)),
      "F-q5" -> ((1200L, 30000L, 3, 0L)),
      "F-q6" -> ((1200L, 30000L, 3, 0L)),
      "F-q7" -> ((926L, 23150L, 3, 1200L)),
      "F-q8" -> ((1200L, 30000L, 3, 0L)),
      "F-q9" -> ((1200L, 30000L, 3, 0L))))

  /** δ = 1e-3, roundRows = 2 000: views go inactive early, so the counters
    * also move when the engine changes when a view stops. No δ in (0, 1)
    * stops all nine queries before the full pass at 30 000 rows (even
    * δ = 0.9 stops only F-q1, F-q4 and F-q9); at 1e-3, F-q1 and F-q4 stop
    * early, and F-q2, F-q5, F-q8 and F-q9 probe or fetch less than at 1e-15.
    */
  private val pinnedCountersModerateDelta: Counters = Map(
    Strategy.ActivePeek -> Map(
      "F-q1" -> ((720L, 18000L, 9, 726L)),
      "F-q2" -> ((1193L, 29825L, 15, 348L)),
      "F-q3" -> ((1200L, 30000L, 15, 35L)),
      "F-q4" -> ((240L, 6000L, 3, 242L)),
      "F-q5" -> ((1200L, 30000L, 15, 739L)),
      "F-q6" -> ((1200L, 30000L, 15, 2318L)),
      "F-q7" -> ((926L, 23150L, 12, 1238L)),
      "F-q8" -> ((1200L, 30000L, 15, 300L)),
      "F-q9" -> ((1188L, 29700L, 15, 103L))),
    Strategy.ActiveSync -> Map(
      "F-q1" -> ((720L, 18000L, 9, 726L)),
      "F-q2" -> ((1193L, 29825L, 15, 1446L)),
      "F-q3" -> ((1200L, 30000L, 15, 1203L)),
      "F-q4" -> ((240L, 6000L, 3, 242L)),
      "F-q5" -> ((1200L, 30000L, 15, 2202L)),
      "F-q6" -> ((1200L, 30000L, 15, 4284L)),
      "F-q7" -> ((926L, 23150L, 12, 2151L)),
      "F-q8" -> ((1200L, 30000L, 15, 1575L)),
      "F-q9" -> ((1188L, 29700L, 15, 1203L))),
    Strategy.Scan -> Map(
      "F-q1" -> ((720L, 18000L, 9, 726L)),
      "F-q2" -> ((1200L, 30000L, 15, 0L)),
      "F-q3" -> ((1200L, 30000L, 15, 0L)),
      "F-q4" -> ((240L, 6000L, 3, 242L)),
      "F-q5" -> ((1200L, 30000L, 15, 0L)),
      "F-q6" -> ((1200L, 30000L, 15, 0L)),
      "F-q7" -> ((926L, 23150L, 12, 1200L)),
      "F-q8" -> ((1200L, 30000L, 15, 0L)),
      "F-q9" -> ((1200L, 30000L, 15, 0L))))

  /** Exact's (blocksFetched, rowsProcessed) from startBlock 0: the whole
    * pass, less the blocks F-q1/F-q4's Origin = 'ORD' and F-q7's
    * Airline = 'HP' bitmaps prune.
    */
  private val pinnedExactCounters: Map[String, (Long, Long)] = Map(
    "F-q1" -> ((1189L, 29725L)),
    "F-q2" -> ((1200L, 30000L)),
    "F-q3" -> ((1200L, 30000L)),
    "F-q4" -> ((1189L, 29725L)),
    "F-q5" -> ((1200L, 30000L)),
    "F-q6" -> ((1200L, 30000L)),
    "F-q7" -> ((926L, 23150L)),
    "F-q8" -> ((1200L, 30000L)),
    "F-q9" -> ((1200L, 30000L)))

  test("counter gate: blocks, rows, rounds and bitmap probes of F-q1..F-q9 at sf=0.005") {
    assert(counters(1e-15, 10000L) === pinnedCounters)
    assert(counters(1e-3, 2000L) === pinnedCountersModerateDelta)
    val exact = FlightsQueries.all.map { q =>
      val m = Engine.runExact(scr, q).metrics
      q.name -> ((m.blocksFetched, m.rowsProcessed))
    }.toMap
    assert(exact === pinnedExactCounters)
  }

  test("ActivePeek fetches the blocks ActiveSync fetches on F-q1..F-q9 at both pins") {
    // Both strategies fetch a block iff it may hold a view active at that
    // block; they differ only in how they probe the bitmaps.
    for ((delta, roundRows) <- Seq((1e-15, 10000L), (1e-3, 2000L))) {
      val c = counters(delta, roundRows)
      def fetched(st: Strategy) = c(st).map { case (q, (blocks, rows, rounds, _)) => q -> ((blocks, rows, rounds)) }
      assert(fetched(Strategy.ActivePeek) === fetched(Strategy.ActiveSync), s"delta = $delta")
    }
  }

  test("F-q2 terminates before a full pass at small scale with relaxed delta") {
    // At 30k rows the paper's delta=1e-15 forces near-full scans (the
    // sample requirement does not shrink with N); a moderate delta shows
    // the early-termination machinery working end-to-end.
    val r2 = Engine.run(scr, FlightsQueries.q2(),
      EngineConfig(bounder = Bounders.BernsteinRT, delta = 0.01, roundRows = 5000))
    val ex = Engine.runExact(scr, FlightsQueries.q2())
    assert(r2.metrics.blocksFetched < scr.numBlocks)
    assert(TableHarness.isCorrect(FlightsQueries.q2(), r2, ex))
  }

  test("isCorrect detects a wrong HAVING partition") {
    val q  = FlightsQueries.q5
    val ex = Engine.runExact(scr, q)
    // Forge a run claiming every airport is above 0.
    val forged = ex.copy(results = ex.results.map(r =>
      r.copy(bounds = r.bounds.copy(mean = 5.0, iv = Interval(1.0, 9.0), exact = false))))
    assert(!TableHarness.isCorrect(q, forged, ex))
  }

  test("isCorrect detects a wrong top-k") {
    val q  = FlightsQueries.q9
    val ex = Engine.runExact(scr, q)
    val worstKey = ex.topK(1, largest = false).head
    val forged = ex.copy(results = ex.results.map { r =>
      val mean = if (r.key == worstKey) 99.0 else 0.0
      r.copy(bounds = r.bounds.copy(mean = mean, iv = Interval(mean, mean)))
    })
    assert(!TableHarness.isCorrect(q, forged, ex))
  }

  test("evaluate() aggregates repeats and flags correctness") {
    val row = PaperTables.evaluate(scr, FlightsQueries.q2(),
      Seq("B+RT" -> EngineConfig(bounder = Bounders.BernsteinRT, roundRows = 10000)), repeats = 2)
    assert(row.query === "F-q2")
    assert(row.evals.size === 1)
    assert(row.evals.head.allCorrect)
    assert(row.evals.head.speedupBlocks > 0)
    assert(row.exactBlocks === scr.numBlocks) // unfiltered query scans all blocks
  }

  test("render() produces a row per query") {
    val rows = Seq(PaperTables.evaluate(scr, FlightsQueries.q2(),
      Seq("B+RT" -> EngineConfig(bounder = Bounders.BernsteinRT, roundRows = 10000)), repeats = 1))
    val out = PaperTables.render(rows, "Exact")
    assert(out.contains("F-q2"))
    assert(out.contains("B+RT"))
  }
}
