package repro.core

/** Bernstein–Serfling error bounders (paper Algorithm 2; Bardenet &
  * Maillard, Bernoulli 21(3), 2015).
  *
  * Both variants (the deployed empirical one below and the known-σ
  * `BernsteinSerfling`, a test-scope reference) produce bounds of the shape
  *
  *   ĝ ∓ [ σ · √( 2·ρₘ·log(C/δ) / m )  +  κ · (b − a) · log(C/δ) / m ]
  *
  * where ρₘ is Bardenet–Maillard's piecewise sampling-fraction factor.
  * The variance term decays as 1/√m and the range term as 1/m, which is
  * why these bounds are dramatically tighter than Hoeffding–Serfling when
  * σ ≪ (b − a) — the paper's central empirical observation. Bernstein
  * bounders are PMA-free but (being symmetric) still exhibit PHOS, which
  * [[RangeTrim]] removes.
  */
object Bernstein {

  /** κ = 7/3 + 3/√2 from Bardenet–Maillard Theorem 3 (empirical variant). */
  val KappaEmpirical: Double = 7.0 / 3.0 + 3.0 / math.sqrt(2.0)

  private[core] def deviation(
      sigma: Double, m: Long, a: Double, b: Double, n: Long,
      delta: Double, logArg: Double, kappa: Double): Double = {
    if (m <= 0) Double.PositiveInfinity
    else {
      val l   = math.log(logArg / delta)
      val rho = ErrorBounder.rhoBardenetMaillard(m, n)
      sigma * math.sqrt(2.0 * rho * l / m) + kappa * (b - a) * l / m
    }
  }
}

/** Empirical Bernstein–Serfling bounder (paper Algorithm 2): the deployed
  * variant, using the empirical σ̂ = √((1/m)·Σ(x−x̄)²) with the log(5/δ)
  * confidence inflation of Bardenet–Maillard Theorem 3.
  */
object EmpiricalBernsteinSerfling extends MomentBounder {

  override def name: String = "Bernstein"

  def epsilon(s: MomentState, a: Double, b: Double, n: Long, delta: Double): Double =
    Bernstein.deviation(s.stddev, s.m, a, b, n, delta, logArg = 5.0, kappa = Bernstein.KappaEmpirical)

  override def lbound(s: MomentState, a: Double, b: Double, n: Long, delta: Double): Double =
    if (s.isEmpty) a else s.mean - epsilon(s, a, b, n, delta)

  override def rbound(s: MomentState, a: Double, b: Double, n: Long, delta: Double): Double =
    if (s.isEmpty) b else s.mean + epsilon(s, a, b, n, delta)
}
