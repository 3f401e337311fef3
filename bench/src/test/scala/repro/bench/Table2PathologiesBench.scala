package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.core.StateFolds._

/** Reproduces paper Table 2: pathologies (PMA / PHOS), sampling modes, and
  * memory per error bounder. Printed next to the paper's entries so the
  * two can be diffed (see EXPERIMENTS.md).
  */
class Table2PathologiesBench extends AnyFunSuite {

  private def yn(b: Boolean) = if (b) "yes" else "no"

  /** (name, paper PMA, paper PHOS, sampling, memory) per paper Table 2. */
  private val paperRows = Seq(
    ("Hoeffding", true, true, "R* (NR)", "O(1)"),
    ("Hoeffding+RT", true, false, "R* (NR)", "O(1)"),
    ("Bernstein", false, true, "R* (NR)", "O(1)"),
    ("Bernstein+RT", false, false, "R* (NR)", "O(1)"),
    ("Anderson/DKW", true, false, "R, NR", "O(m)"))

  test("Table 2: measured pathology matrix matches the paper") {
    def measured[S](b: ErrorBounder[S]): (Boolean, Boolean) =
      (Pathologies.exhibitsPMA(b), Pathologies.exhibitsPHOS(b))
    val rows: Seq[(String, (Boolean, Boolean))] =
      Bounders.all.map(b => b.name -> measured(b)) :+
        (AndersonDkw.name -> measured(AndersonDkw))

    println("== Table 2 reproduction: error bounder pathologies ==")
    println(f"${"Error Bounder"}%-16s ${"PMA"}%8s ${"PHOS"}%8s ${"(paper PMA/PHOS)"}%18s ${"Sampling"}%10s ${"Memory"}%8s")
    for (((name, (pma, phos)), (pname, pPma, pPhos, sampling, mem)) <- rows.zip(paperRows)) {
      assert(name === pname)
      println(f"$name%-16s ${yn(pma)}%8s ${yn(phos)}%8s ${s"(${yn(pPma)}/${yn(pPhos)})"}%18s $sampling%10s $mem%8s")
      assert(pma === pPma, s"$name PMA mismatch vs paper")
      assert(phos === pPhos, s"$name PHOS mismatch vs paper")
    }
  }

  test("Table 2: memory footprint — moment bounders are O(1), DKW is O(m)") {
    // Moment bounders keep a fixed-size state; DKW's state grows with m.
    val m1 = Bounders.BernsteinRT.stateOf(Seq.fill(10)(1.0))
    val m2 = Bounders.BernsteinRT.stateOf(Seq.fill(10000)(1.0))
    assert(m1.productArity === m2.productArity) // same fixed record
    assert(AndersonDkw.stateOf(Seq.fill(10)(1.0)).size === 10)
    assert(AndersonDkw.stateOf(Seq.fill(10000)(1.0)).size === 10000)
  }
}
