package repro.core

/** The online view-size bound N⁺ of paper Theorem 3 (§4.1, Lemma 5).
  *
  * Conceptually each scramble row carries a 0/1 indicator of membership in
  * the aggregate view V; scanning r of the R rows yields a
  * without-replacement sample of the indicator, so Hoeffding–Serfling with
  * range [0, 1] bounds the selectivity σ_V, and multiplying by R bounds
  * N = |V|. Bounders require a dataset size but a filtered view's size is
  * unknown, so they get the upper bound N⁺.
  */
object CountBound {

  /** Default weight split of Theorem 3: α of δ goes to the AVG bounds,
    * (1−α) to the N⁺ bound. The paper fixes α = 0.99 throughout §5.
    */
  val DefaultAlpha: Double = 0.99

  /** One-sided Hoeffding–Serfling deviation for a 0/1 indicator after r of
    * R rows ([[HoeffdingSerfling.epsilon]] on the range [0, 1]), clamped to 1.
    */
  def epsilon(r: Long, bigR: Long, delta: Double): Double =
    math.min(1.0, HoeffdingSerfling.epsilon(r, 0.0, 1.0, bigR, delta))

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
