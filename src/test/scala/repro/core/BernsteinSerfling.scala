package repro.core

/** Known-variance Bernstein–Serfling bounder (Bardenet–Maillard Theorem 2).
  * Requires VAR(D) = σ² a priori, which is unrealistic in a DBMS when
  * AVG(D) is unknown (paper §2.2.3) — kept as a test-scope reference for
  * comparison with the deployed empirical variant.
  */
final case class BernsteinSerfling(sigma: Double) extends MomentBounder {
  require(sigma >= 0, "sigma must be nonnegative")

  override def name: String = "Bernstein(σ known)"

  def epsilon(m: Long, a: Double, b: Double, n: Long, delta: Double): Double =
    Bernstein.deviation(sigma, m, a, b, n, delta, logArg = 3.0, kappa = BernsteinSerfling.KappaKnownVariance)

  override def lbound(s: MomentState, a: Double, b: Double, n: Long, delta: Double): Double =
    if (s.isEmpty) a else s.mean - epsilon(s.m, a, b, n, delta)

  override def rbound(s: MomentState, a: Double, b: Double, n: Long, delta: Double): Double =
    if (s.isEmpty) b else s.mean + epsilon(s.m, a, b, n, delta)
}

object BernsteinSerfling {

  /** κ for the known-variance variant (Bardenet–Maillard Theorem 2). */
  val KappaKnownVariance: Double = 4.0 / 3.0
}
