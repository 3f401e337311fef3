package repro.core

/** Two-sided selectivity and COUNT intervals for an aggregate view (paper
  * §4.1, Lemma 5), built on [[CountBound.epsilon]]. A test-scope
  * reference, as no query path computes COUNT; its COUNT interval is the
  * one [[SumBound]] combines with an AVG interval.
  */
object ViewCount {

  /** Two-sided (1−δ) CI for the selectivity σ_V (Lemma 5: log(2/δ), i.e.
    * δ/2 per side), clamped to [0, 1].
    */
  def selectivityInterval(mV: Long, r: Long, bigR: Long, delta: Double): Interval = {
    val hat = if (r <= 0) 0.5 else mV.toDouble / r
    val eps = CountBound.epsilon(r, bigR, delta / 2)
    Interval(math.max(0.0, hat - eps), math.min(1.0, hat + eps))
  }

  /** Two-sided (1−δ) CI for N = |V| (selectivity CI scaled by R). The
    * lower endpoint is additionally floored at mV — we have certainly
    * *seen* mV view rows.
    */
  def countInterval(mV: Long, r: Long, bigR: Long, delta: Double): Interval = {
    val sel = selectivityInterval(mV, r, bigR, delta)
    Interval(math.max(mV.toDouble, sel.lo * bigR), math.min(bigR.toDouble, sel.hi * bigR))
  }
}
