package repro.flights

import repro.core.Bounders
import repro.fastframe._

/** One approximate configuration's measurements for one query, averaged
  * over repeats (the paper reports 3-run averages, §5.2).
  */
final case class ApproxEval(
    label: String,
    wallMs: Double,
    blocks: Double,
    rows: Double,
    allCorrect: Boolean,
    speedupTime: Double,
    speedupBlocks: Double)

/** One row of a reproduction table: a query's exact baseline plus the
  * evaluated approximate configurations.
  */
final case class TableRow(
    query: String,
    exactMs: Double,
    exactBlocks: Long,
    evals: Seq[ApproxEval])

/** Measurement harness behind the paper's Table-5 and Table-6 benches:
  * every approximate configuration is timed against Exact and each of its
  * answers is checked with [[TableHarness.isCorrect]].
  */
object PaperTables {

  /** Run `query` exactly once (timed over `repeats` runs) and each labeled
    * config `repeats` times from staggered start positions, averaging
    * metrics; correctness must hold on every repeat.
    */
  def evaluate(
      scramble: Scramble,
      query: FrameQuery,
      configs: Seq[(String, EngineConfig)],
      repeats: Int = 3): TableRow = {
    // Warm up the JIT on both engine paths so the first measured config
    // (Hoeffding, in Table 5) is not charged for compilation.
    configs.headOption.foreach { case (_, cfg) => Engine.run(scramble, query, cfg) }
    Engine.runExact(scramble, query)

    val exactRuns = (0 until repeats).map(_ => Engine.runExact(scramble, query))
    val exact     = exactRuns.head
    val exactMs   = exactRuns.map(_.metrics.wallMillis).sum / repeats

    val evals = configs.map { case (label, cfg) =>
      val runs = (0 until repeats).map { i =>
        val start = (i.toLong * scramble.numBlocks / repeats).toInt
        Engine.run(scramble, query, cfg.copy(startBlock = start))
      }
      val ms     = runs.map(_.metrics.wallMillis).sum / repeats
      val blocks = runs.map(_.metrics.blocksFetched).sum.toDouble / repeats
      val rows   = runs.map(_.metrics.rowsProcessed).sum.toDouble / repeats
      val ok     = runs.forall(r => TableHarness.isCorrect(query, r, exact))
      ApproxEval(label, ms, blocks, rows, ok,
        speedupTime = exactMs / math.max(1e-9, ms),
        speedupBlocks = exact.metrics.blocksFetched.toDouble / math.max(1.0, blocks))
    }
    TableRow(query.name, exactMs, exact.metrics.blocksFetched, evals)
  }

  /** Paper Table 5: all nine queries × the four bounders (ActivePeek
    * sampling, δ = 1e-15, B = 40 000), speedups over Exact.
    */
  def table5(scramble: Scramble, repeats: Int = 3,
             queries: Seq[FrameQuery] = FlightsQueries.all): Seq[TableRow] = {
    val configs = Bounders.all.map(bd => bd.name -> EngineConfig(bounder = bd))
    queries.map(q => evaluate(scramble, q, configs, repeats))
  }

  /** Paper Table 6: GROUP BY queries F-q3/5/6/7/8 × the three sampling
    * strategies, with the Bernstein+RT bounder, speedups over Scan.
    */
  def table6(scramble: Scramble, repeats: Int = 3): Seq[TableRow] = {
    val queries = Seq(FlightsQueries.q3(), FlightsQueries.q5, FlightsQueries.q6,
      FlightsQueries.q7, FlightsQueries.q8)
    val strategies: Seq[(String, Strategy)] = Seq(
      "Scan" -> Strategy.Scan, "ActiveSync" -> Strategy.ActiveSync,
      "ActivePeek" -> Strategy.ActivePeek)
    val configs = strategies.map { case (label, s) =>
      label -> EngineConfig(bounder = Bounders.BernsteinRT, strategy = s)
    }
    queries.map(q => evaluate(scramble, q, configs, repeats))
  }

  /** Render a table row set in the paper's "speedup× (raw time s)" style. */
  def render(rows: Seq[TableRow], baselineLabel: String): String = {
    val sb = new StringBuilder
    val labels = rows.headOption.map(_.evals.map(_.label)).getOrElse(Nil)
    sb.append(f"${"Query"}%-8s ${baselineLabel + " (ms)"}%14s ${baselineLabel + " blks"}%14s")
    labels.foreach(l => sb.append(f"  ${l}%24s"))
    sb.append('\n')
    rows.foreach { r =>
      sb.append(f"${r.query}%-8s ${r.exactMs}%14.2f ${r.exactBlocks}%14d")
      r.evals.foreach { e =>
        val flag = if (e.allCorrect) "" else " WRONG!"
        sb.append(f"  ${f"${e.speedupBlocks}%8.2fx blk ${e.speedupTime}%7.2fx t$flag"}%24s")
      }
      sb.append('\n')
    }
    sb.toString
  }
}
