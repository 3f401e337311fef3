package repro.core

/** Selectivity / COUNT confidence bounds for aggregate views over a
  * scramble (paper §4.1, Lemma 5 and Theorem 3).
  *
  * Conceptually each scramble row carries a 0/1 indicator of membership in
  * the aggregate view V; scanning r of the R rows yields a
  * without-replacement sample of the indicator, so Hoeffding–Serfling with
  * range [0, 1] bounds the selectivity σ_V, and multiplying by R bounds
  * N = |V| — including the online upper bound N⁺ needed because bounders
  * require a dataset size but a filtered view's size is unknown.
  */
object CountBound {

  /** Default weight split of Theorem 3: α of δ goes to the AVG bounds,
    * (1−α) to the N⁺ bound. The paper fixes α = 0.99 throughout §5.
    */
  val DefaultAlpha: Double = 0.99

  /** One-sided Hoeffding–Serfling deviation for a 0/1 indicator after r of
    * R rows: ε = √( log(1/δ) · (1 − (r−1)/R) / (2r) ).
    */
  def epsilon(r: Long, bigR: Long, delta: Double): Double =
    if (r <= 0) 1.0
    else math.min(1.0, math.sqrt(math.log(1.0 / delta) * ErrorBounder.rhoSerfling(r, bigR) / (2.0 * r)))

  /** Two-sided (1−δ) CI for the selectivity σ_V (Lemma 5: log(2/δ), i.e.
    * δ/2 per side), clamped to [0, 1].
    */
  def selectivityInterval(mV: Long, r: Long, bigR: Long, delta: Double): Interval = {
    val hat = if (r <= 0) 0.5 else mV.toDouble / r
    val eps = epsilon(r, bigR, delta / 2)
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

  /** Theorem 3's one-sided upper bound N⁺ on the view size, holding with
    * probability ≥ 1 − (1−α)·δ. Guaranteed ≥ max(mV, 1) so it is always a
    * legal dataset size for the AVG bounders.
    */
  def nUpper(mV: Long, r: Long, bigR: Long, delta: Double, alpha: Double = DefaultAlpha): Long = {
    require(alpha > 0 && alpha < 1, s"alpha must be in (0,1), got $alpha")
    val hat = if (r <= 0) 1.0 else mV.toDouble / r
    val eps = epsilon(r, bigR, (1.0 - alpha) * delta)
    val up  = math.min(1.0, hat + eps) * bigR
    math.max(math.max(1L, mV), math.ceil(up).toLong)
  }
}
