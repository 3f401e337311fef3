package repro.core

/** Closed real interval `[lo, hi]`, the output of an error bounder. */
final case class Interval(lo: Double, hi: Double) {
  require(!lo.isNaN && !hi.isNaN, "interval bounds must not be NaN")
  require(lo <= hi, s"interval [$lo, $hi] is reversed")

  def width: Double = hi - lo

  def contains(x: Double): Boolean = lo <= x && x <= hi
}

/** A sample-size-independent (SSI) range-based error bounder for AVG,
  * following the paper's §2.2.2 interface:
  *
  *   - `init`    = `init_state()`
  *   - `update`  = `update_state(S, v)`
  *   - `lbound`  = `Lbound(S, a, b, N, δ)`
  *   - `rbound`  = `Rbound(S, a, b, N, δ)`
  *
  * plus `merge`, which this repo requires so state can serve as a Spark
  * partial-aggregation buffer. All implementations must satisfy the
  * *dataset-size monotonicity* property of §3.3: using any N′ > N can only
  * loosen the bounds (this is what makes the online N⁺ upper bound of
  * Theorem 3 sound).
  *
  * Contract: given a uniform without-replacement sample (folded into `s`)
  * from a dataset D of `n` values all in `[a, b]`,
  * `P(lbound(...) > AVG(D)) < δ` and `P(rbound(...) < AVG(D)) < δ`.
  *
  * @tparam S the bounder's state type
  */
trait ErrorBounder[S] extends Serializable {

  /** Short display name (used in bench tables, e.g. "Bernstein+RT"). */
  def name: String

  def init: S

  def update(s: S, v: Double): S

  /** Combine two states built from disjoint sub-samples. */
  def merge(a: S, b: S): S

  /** Number of values folded into `s`. */
  def count(s: S): Long

  /** Point estimate ĝ (the running sample mean). */
  def mean(s: S): Double

  /** (1−δ) confidence *lower* bound on AVG(D). */
  def lbound(s: S, a: Double, b: Double, n: Long, delta: Double): Double

  /** (1−δ) confidence *upper* bound on AVG(D). */
  def rbound(s: S, a: Double, b: Double, n: Long, delta: Double): Double

  /** The (1−δ/2) lower confidence bound, clamped to the sure range
    * (AVG(D) ∈ [a, b] with certainty, so clamping preserves coverage).
    */
  final def lower(s: S, a: Double, b: Double, n: Long, delta: Double): Double =
    math.max(a, lbound(s, a, b, n, delta / 2))

  /** The (1−δ/2) upper confidence bound, clamped to the sure range. */
  final def upper(s: S, a: Double, b: Double, n: Long, delta: Double): Double =
    math.min(b, rbound(s, a, b, n, delta / 2))

  /** (1−δ) confidence interval: union bound over [[lower]] and [[upper]].
    * A crossed pair means one of them has failed; it fails the `Interval`.
    */
  final def interval(s: S, a: Double, b: Double, n: Long, delta: Double): Interval =
    Interval(lower(s, a, b, n, delta), upper(s, a, b, n, delta))
}

/** Mixin for bounders whose state is [[MomentState]]; supplies the shared
  * state plumbing so concrete bounders only implement the bound formulas.
  */
trait MomentBounder extends ErrorBounder[MomentState] {
  final override def init: MomentState = MomentState.empty
  final override def update(s: MomentState, v: Double): MomentState = MomentState.update(s, v)
  final override def merge(a: MomentState, b: MomentState): MomentState = MomentState.merge(a, b)
  final override def count(s: MomentState): Long = s.m
  final override def mean(s: MomentState): Double = s.mean
}

object ErrorBounder {

  /** Serfling sampling-fraction factor ρₘ = (1 − (m−1)/N) used by the
    * Hoeffding–Serfling bound; clamped at 0 for numerical safety when an
    * (always-valid) upper bound N⁺ happens to be smaller than m.
    */
  def rhoSerfling(m: Long, n: Long): Double =
    math.max(0.0, 1.0 - (m - 1).toDouble / math.max(1L, n))

  /** Bardenet–Maillard piecewise ρₘ (their eq. for Bernstein–Serfling):
    * (1 − (m−1)/N) for m ≤ N/2, (1 − m/N)(1 + 1/m) beyond half the data.
    */
  def rhoBardenetMaillard(m: Long, n: Long): Double = {
    val nn = math.max(1L, n)
    if (m <= nn / 2) math.max(0.0, 1.0 - (m - 1).toDouble / nn)
    else math.max(0.0, (1.0 - m.toDouble / nn) * (1.0 + 1.0 / m))
  }
}
