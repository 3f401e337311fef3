package repro.core

/** Registry of the four moment-based bounder configurations evaluated in
  * the paper's Table 5 ablation (§5.2): Hoeffding(-Serfling) and empirical
  * Bernstein(-Serfling), each with and without RangeTrim.
  */
object Bounders {

  val Hoeffding: MomentBounder = HoeffdingSerfling

  val HoeffdingRT: MomentBounder = RangeTrim(HoeffdingSerfling)

  val Bernstein: MomentBounder = EmpiricalBernsteinSerfling

  val BernsteinRT: MomentBounder = RangeTrim(EmpiricalBernsteinSerfling)

  /** Table-5 order: Hoeffding, Hoeffding+RT, Bernstein, Bernstein+RT. */
  val all: Seq[MomentBounder] = Seq(Hoeffding, HoeffdingRT, Bernstein, BernsteinRT)
}
