package repro.core

import repro.core.StateFolds._
import scala.util.Random

/** Behavioral detectors for the two error-bounder pathologies the paper
  * identifies (§2.3): pessimistic mass allocation (PMA, Definition 2) and
  * phantom outlier sensitivity (PHOS, Definition 3). These drive the
  * reproduction of paper Table 2.
  *
  * PHOS is detected exactly as defined: perturb the *far* range bound
  * (b for Lbound, a for Rbound) with the sample held fixed and strictly
  * interior; any response is PHOS.
  *
  * PMA as literally defined degenerates on constant samples (clipping a
  * sample that lies entirely in [a, a′) collapses it to a constant, where
  * even variance-sensitive bounders return unchanged widths). We therefore
  * detect the paper's *intent* — "unnecessary placement of unseen mass at
  * the range endpoints" — quantitatively: measure the share of the CI
  * width attributable to the endpoint position,
  *
  *   ratio(m) = (b−a)·|∂width/∂a| / width,
  *
  * at sample sizes m and 64·m. For Hoeffding the endpoint term *is* the
  * width (ratio ≈ const); for Anderson/DKW the displaced ε mass sits at
  * the endpoint (ratio ≈ const); for Bernstein the endpoint enters only
  * through the O(1/m) range term, so the ratio vanishes as m grows —
  * no PMA. A secondary probe, [[widthRespondsToClipping]], realizes
  * Definition 2's clip test on a spread sample.
  */
object Pathologies {

  /** Deterministic spread sample interior to [a, b]: a bimodal mixture in
    * [a + 0.3·(b−a), a + 0.7·(b−a)], far from both endpoints.
    */
  def interiorSample(m: Int, a: Double, b: Double, seed: Long = 42L): Vector[Double] = {
    val rng  = new Random(seed)
    val span = b - a
    Vector.fill(m) {
      val mode = if (rng.nextBoolean()) 0.35 else 0.65
      a + span * (mode + 0.04 * rng.nextGaussian())
    }.map(v => math.min(a + 0.7 * span, math.max(a + 0.3 * span, v)))
  }

  /** Definition 3, first clause: does the confidence *lower* bound depend
    * on the *upper* range bound b? (Sample fixed, all values ≪ b.)
    */
  def lboundDependsOnB[S](
      bounder: ErrorBounder[S], sample: Iterable[Double],
      a: Double, b: Double, n: Long, delta: Double): Boolean = {
    val s     = bounder.stateOf(sample)
    val shift = (b - a) * 0.5
    math.abs(bounder.lbound(s, a, b, n, delta) - bounder.lbound(s, a, b + shift, n, delta)) > 1e-12
  }

  /** Definition 3, second clause: does the confidence *upper* bound depend
    * on the *lower* range bound a?
    */
  def rboundDependsOnA[S](
      bounder: ErrorBounder[S], sample: Iterable[Double],
      a: Double, b: Double, n: Long, delta: Double): Boolean = {
    val s     = bounder.stateOf(sample)
    val shift = (b - a) * 0.5
    math.abs(bounder.rbound(s, a, b, n, delta) - bounder.rbound(s, a - shift, b, n, delta)) > 1e-12
  }

  /** PHOS per Definition 3 (either clause suffices). */
  def exhibitsPHOS[S](
      bounder: ErrorBounder[S],
      a: Double = 0.0, b: Double = 1.0, n: Long = 1000000L,
      m: Int = 400, delta: Double = 0.05): Boolean = {
    val sample = interiorSample(m, a, b)
    lboundDependsOnB(bounder, sample, a, b, n, delta) ||
      rboundDependsOnA(bounder, sample, a, b, n, delta)
  }

  /** Width share attributable to the position of the lower endpoint a:
    * (b−a)·|∂width/∂a| / width, estimated by finite difference.
    */
  def endpointSensitivityRatio[S](
      bounder: ErrorBounder[S], sample: Iterable[Double],
      a: Double, b: Double, n: Long, delta: Double): Double = {
    val s  = bounder.stateOf(sample)
    def width(aa: Double): Double =
      bounder.rbound(s, aa, b, n, delta) - bounder.lbound(s, aa, b, n, delta)
    val span = b - a
    val h    = span * 0.05
    val w    = width(a)
    if (w <= 0) 0.0 else span * math.abs(width(a - h) - width(a)) / h / w
  }

  /** PMA detector (see object doc): endpoint sensitivity of the width does
    * not vanish relative to the width as the sample grows 256-fold. For
    * PMA bounders (Hoeffding, Anderson/DKW) the ratio is Θ(1) at both
    * sizes; for Bernstein it decays like √(1/m).
    */
  def exhibitsPMA[S](
      bounder: ErrorBounder[S],
      a: Double = 0.0, b: Double = 1.0, delta: Double = 0.05): Boolean = {
    val mSmall = 256
    val mLarge = mSmall * 256
    val n      = 100L * mLarge
    val rSmall = endpointSensitivityRatio(bounder, interiorSample(mSmall, a, b), a, b, n, delta)
    val rLarge = endpointSensitivityRatio(bounder, interiorSample(mLarge, a, b), a, b, n, delta)
    rLarge > 0.05 && rLarge > 0.5 * rSmall
  }

  /** Definition 2's clip probe on a *spread* sample: clip the lower tail
    * up to a′ and report whether the CI width strictly shrinks (by more
    * than `tol` × span). Bounders without PMA respond; Hoeffding does not.
    */
  def widthRespondsToClipping[S](
      bounder: ErrorBounder[S],
      a: Double = 0.0, b: Double = 1.0, n: Long = 1000000L,
      m: Int = 1024, delta: Double = 0.05, tol: Double = 1e-6): Boolean = {
    val sample  = interiorSample(m, a, b)
    val aPrime  = a + 0.45 * (b - a)
    val clipped = sample.map(v => math.max(v, aPrime))
    val s       = bounder.stateOf(sample)
    val sC      = bounder.stateOf(clipped)
    def width(st: S): Double =
      bounder.rbound(st, a, b, n, delta) - bounder.lbound(st, a, b, n, delta)
    width(s) - width(sC) > tol * (b - a)
  }
}
