package repro.bench

import repro.SparkSpec
import repro.flights.{FlightsScramble, PaperTables}

/** Reproduces paper Table 5: average speedup over Exact per query for
  * Hoeffding, Hoeffding+RT, Bernstein, and Bernstein+RT (ActivePeek
  * sampling, δ = 1e-15, B = 40 000, 25-row blocks, 3-run averages).
  *
  * Absolute speedups are compressed relative to the paper because the
  * substituted dataset is ~100× smaller while the sample size an SSI
  * bound needs at δ = 1e-15 does not shrink with N; the reproduction
  * targets the *shape*: Bernstein ≫ Hoeffding, RT helping most on
  * sparse-group queries, Hoeffding ~at-or-below Exact on F-q5.
  */
class Table5BoundersBench extends SparkSpec {

  /** Paper Table 5 speedups over Exact, for the printed comparison. */
  private val paper: Map[String, Seq[Double]] = Map(
    // query -> (Hoeffding, Hoeffding+RT, Bernstein, Bernstein+RT)
    "F-q1" -> Seq(61.58, 60.17, 1721.06, 3093.02),
    "F-q2" -> Seq(267.75, 374.92, 2440.25, 5135.43),
    "F-q3" -> Seq(1.19, 1.74, 9.57, 18.58),
    "F-q4" -> Seq(13.38, 13.64, 991.50, 956.72),
    "F-q5" -> Seq(0.48, 0.90, 1.86, 3.77),
    "F-q6" -> Seq(1.19, 1.26, 12.48, 21.63),
    "F-q7" -> Seq(0.99, 1.00, 2.21, 2.51),
    "F-q8" -> Seq(1.08, 1.08, 5.60, 5.83),
    "F-q9" -> Seq(1.16, 1.34, 143.84, 157.94))

  test("Table 5: bounder ablation over all nine queries") {
    val scramble = FlightsScramble(spark, sf = BenchConfig.sf)
    val rows     = PaperTables.table5(scramble, repeats = BenchConfig.repeats)

    println(s"== Table 5 reproduction (sf=${BenchConfig.sf}, ${scramble.numRows} rows, " +
      s"${scramble.numBlocks} blocks, delta=1e-15) ==")
    println(PaperTables.render(rows, "Exact"))
    println("paper speedups (H, H+RT, B, B+RT):")
    paper.toSeq.sortBy(_._1).foreach { case (q, s) =>
      println(f"$q%-6s ${s.map(v => f"$v%10.2f").mkString(" ")}")
    }

    // Correctness: the paper's headline metric — every approximate answer
    // must match the exact answer ("a cool 0" failures).
    for (row <- rows; e <- row.evals)
      assert(e.allCorrect, s"${row.query} / ${e.label} returned a wrong answer")

    def totalBlocks(label: String): Double =
      rows.map(_.evals.find(_.label == label).get.blocks).sum

    // Shape: Bernstein needs (far) less data than Hoeffding overall, and
    // RangeTrim never hurts materially (paper: "without ever hurting
    // performance in the worst case").
    assert(totalBlocks("Bernstein") < totalBlocks("Hoeffding"))
    assert(totalBlocks("Bernstein+RT") <= totalBlocks("Bernstein") * 1.05)
    assert(totalBlocks("Hoeffding+RT") <= totalBlocks("Hoeffding") * 1.05)

    // Shape: F-q5 is the hard query — Hoeffding needs the most data and
    // is not meaningfully faster than Exact in wall time (paper: 0.48x),
    // while Bernstein+RT needs the least.
    val q5 = rows.find(_.query == "F-q5").get
    def q5Eval(l: String) = q5.evals.find(_.label == l).get
    assert(q5Eval("Hoeffding").blocks >= q5Eval("Bernstein").blocks)
    assert(q5Eval("Bernstein").blocks >= q5Eval("Bernstein+RT").blocks * 0.95)
    assert(q5Eval("Hoeffding").speedupTime < 1.3,
      s"F-q5 Hoeffding wall speedup ${q5Eval("Hoeffding").speedupTime} should be ~<=1")

    // Shape: the easy threshold query F-q2 terminates early for Bernstein.
    val q2 = rows.find(_.query == "F-q2").get
    val q2B = q2.evals.find(_.label == "Bernstein+RT").get
    assert(q2B.speedupBlocks > 2.0, s"F-q2 B+RT speedup ${q2B.speedupBlocks}")
  }
}
