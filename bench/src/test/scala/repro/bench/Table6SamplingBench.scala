package repro.bench

import repro.SparkSpec
import repro.flights.{FlightsScramble, PaperTables}

/** Reproduces paper Table 6: average speedup over Scan for ActiveSync and
  * ActivePeek (Bernstein+RT bounder), restricted to the GROUP BY queries
  * F-q3, F-q5, F-q6, F-q7, F-q8.
  */
class Table6SamplingBench extends SparkSpec {

  /** Paper Table 6 speedups over Scan: (ActiveSync, ActivePeek). */
  private val paper: Map[String, (Double, Double)] = Map(
    "F-q3" -> (1.15, 1.20),
    "F-q5" -> (1.11, 3.43),
    "F-q6" -> (1.24, 1.36),
    "F-q7" -> (1.14, 1.13),
    "F-q8" -> (1.40, 5.35))

  test("Table 6: sampling-strategy ablation with Bernstein+RT") {
    val scramble = FlightsScramble(spark, sf = BenchConfig.sf)
    val rows     = PaperTables.table6(scramble, repeats = BenchConfig.repeats)

    println(s"== Table 6 reproduction (sf=${BenchConfig.sf}, ${scramble.numRows} rows) ==")
    println(f"${"Query"}%-6s ${"Scan ms"}%10s ${"Scan blk"}%10s " +
      f"${"Sync ms"}%10s ${"Sync x"}%8s ${"Peek ms"}%10s ${"Peek x"}%8s ${"paper(Sync,Peek)"}%18s")
    for (row <- rows) {
      val scan = row.evals.find(_.label == "Scan").get
      val sync = row.evals.find(_.label == "ActiveSync").get
      val peek = row.evals.find(_.label == "ActivePeek").get
      val (pSync, pPeek) = paper(row.query)
      println(f"${row.query}%-6s ${scan.wallMs}%10.1f ${scan.blocks}%10.0f " +
        f"${sync.wallMs}%10.1f ${scan.wallMs / sync.wallMs}%7.2fx " +
        f"${peek.wallMs}%10.1f ${scan.wallMs / peek.wallMs}%7.2fx " +
        f"${f"($pSync%.2f, $pPeek%.2f)"}%18s")
    }

    for (row <- rows; e <- row.evals)
      assert(e.allCorrect, s"${row.query} / ${e.label} returned a wrong answer")

    // Shape: active scanning never fetches more blocks than Scan, and on
    // the sparse-group-bottlenecked queries (F-q5, F-q8) it fetches
    // meaningfully fewer.
    for (row <- rows) {
      val scan = row.evals.find(_.label == "Scan").get
      val peek = row.evals.find(_.label == "ActivePeek").get
      val sync = row.evals.find(_.label == "ActiveSync").get
      assert(peek.blocks <= scan.blocks * 1.01, s"${row.query}: peek fetched more than scan")
      assert(sync.blocks <= scan.blocks * 1.01, s"${row.query}: sync fetched more than scan")
    }
    for (q <- Seq("F-q5", "F-q8")) {
      val row  = rows.find(_.query == q).get
      val scan = row.evals.find(_.label == "Scan").get
      val peek = row.evals.find(_.label == "ActivePeek").get
      assert(peek.blocks < scan.blocks,
        s"$q: block skipping should help (peek ${peek.blocks} vs scan ${scan.blocks})")
    }
  }
}
