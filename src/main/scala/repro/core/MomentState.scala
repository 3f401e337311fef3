package repro.core

/** Streaming first/second-moment state plus sample extrema.
  *
  * This is the universal `update_state` state (paper §2.2.2) for every
  * moment-based bounder in this repo: Hoeffding(-Serfling) needs (m, mean),
  * Bernstein(-Serfling) additionally needs the empirical variance, and
  * RangeTrim additionally needs (min, max) so it can remove one extreme
  * element and shrink the range (paper §3.2, "conceptual steps").
  *
  * `mean`/`m2` follow Welford's one-pass recurrence (the numerically stable
  * alternative the paper alludes to for Algorithm 2), and `merge` uses the
  * Chan et al. parallel combination, which is what makes this state usable
  * as a distributed Spark aggregation buffer.
  *
  * @param m    number of values folded in
  * @param mean running sample mean (0 when empty)
  * @param m2   running sum of squared deviations Σ(x−mean)² (0 when empty)
  * @param min  smallest value seen (+∞ when empty)
  * @param max  largest value seen (−∞ when empty)
  */
final case class MomentState(m: Long, mean: Double, m2: Double, min: Double, max: Double) {

  /** Biased sample variance σ̂² = (1/m)·Σ(x−x̄)², as defined in the paper. */
  def variance: Double = if (m == 0) 0.0 else math.max(0.0, m2 / m)

  /** Biased sample standard deviation σ̂. */
  def stddev: Double = math.sqrt(variance)

  /** Sum of the values folded in. */
  def sum: Double = mean * m

  def isEmpty: Boolean = m == 0
}

object MomentState {

  /** The `init_state()` of the paper's bounder interface. */
  val empty: MomentState =
    MomentState(0L, 0.0, 0.0, Double.PositiveInfinity, Double.NegativeInfinity)

  /** The `update_state(S, v)` of the paper's bounder interface (Welford). */
  def update(s: MomentState, v: Double): MomentState = {
    val m1    = s.m + 1
    val delta = v - s.mean
    val mean1 = s.mean + delta / m1
    val m21   = s.m2 + delta * (v - mean1)
    MomentState(m1, mean1, m21, math.min(s.min, v), math.max(s.max, v))
  }

  /** Parallel merge (Chan/Golub/LeVeque); associative and commutative up to
    * floating-point error, which is what Spark's partial aggregation needs.
    */
  def merge(a: MomentState, b: MomentState): MomentState = {
    if (a.m == 0) b
    else if (b.m == 0) a
    else {
      val m     = a.m + b.m
      val delta = b.mean - a.mean
      val mean  = a.mean + delta * b.m / m
      val m2    = a.m2 + b.m2 + delta * delta * a.m.toDouble * b.m.toDouble / m
      MomentState(m, mean, m2, math.min(a.min, b.min), math.max(a.max, b.max))
    }
  }

  /** Exact removal ("downdate") of one previously-folded value `v`.
    *
    * Used by RangeTrim to form the state of S − {max S} (or S − {min S}).
    * The returned state's `min`/`max` fields are left untouched: after
    * removing an extreme they are stale, but RangeTrim never reads them —
    * it substitutes the removed value as the trimmed range bound instead.
    */
  def remove(s: MomentState, v: Double): MomentState = {
    require(s.m > 0, "cannot remove from an empty MomentState")
    if (s.m == 1) empty
    else {
      val m1    = s.m - 1
      val mean1 = (s.mean * s.m - v) / m1
      val m21   = math.max(0.0, s.m2 - (v - mean1) * (v - s.mean))
      MomentState(m1, mean1, m21, s.min, s.max)
    }
  }
}
