package repro.fastframe

import repro.core.{CountBound, Interval, MomentBounder, MomentState, OptStop}

/** The per-view bookkeeping of paper Algorithm 5 / Theorem 3, shared by
  * the FastFrame engine and `OptStopSpark`, for a fixed number of view
  * slots (the group domain).
  *
  * The query budget δ is divided by the number of views, then decayed per
  * round to δₖ = (6/π²)·(δ/#views)/k² ([[OptStop.deltaAtRound]]). Within
  * a round, Theorem 3's α-split (α = [[CountBound.DefaultAlpha]]) gives
  * (1−α)·δₖ to the online view-size bound N⁺ and α·δₖ to the AVG interval.
  * Each view keeps the running intersection of its per-round intervals,
  * starting from the sure range [a, b]; a crossed intersection (a
  * δ-failure artifact) collapses to its midpoint, later rounds intersect
  * with that point, and the view is counted in [[crossedViews]].
  *
  * The moment arrays are public so that a row loop can fold values into
  * them directly (Welford, as [[MomentState.update]]).
  *
  * @param totalRows rows in the scramble; a view that has covered all of
  *                  them is exact
  */
final class ViewLedger(
    numViews: Int,
    bounder: MomentBounder,
    a: Double,
    b: Double,
    delta: Double,
    totalRows: Long) {

  val m: Array[Long]         = new Array[Long](numViews)
  val mean: Array[Double]    = new Array[Double](numViews)
  val m2: Array[Double]      = new Array[Double](numViews)
  val min: Array[Double]     = Array.fill(numViews)(Double.PositiveInfinity)
  val max: Array[Double]     = Array.fill(numViews)(Double.NegativeInfinity)
  val exact: Array[Boolean]  = new Array[Boolean](numViews)

  private val lo           = Array.fill(numViews)(a)
  private val hi           = Array.fill(numViews)(b)
  private val crossed      = new Array[Boolean](numViews)
  private var numCrossed   = 0
  private val deltaPerView = delta / numViews
  private var deltaK       = 0.0
  private var round        = 0

  /** Rounds started so far. */
  def rounds: Int = round

  /** Views whose running intersection has crossed at least once; each
    * is a δ-failure, which the guarantee bounds in probability by δ.
    */
  def crossedViews: Int = numCrossed

  /** Start the next round k: δₖ for every view update until the next call. */
  def nextRound(): Unit = {
    round += 1
    deltaK = OptStop.deltaAtRound(deltaPerView, round)
  }

  /** Overwrite view `g`'s moments (for engines that aggregate elsewhere). */
  def set(g: Int, s: MomentState): Unit = {
    m(g) = s.m; mean(g) = s.mean; m2(g) = s.m2; min(g) = s.min; max(g) = s.max
  }

  def stateOf(g: Int): MomentState =
    if (m(g) == 0) MomentState.empty
    else MomentState(m(g), mean(g), m2(g), min(g), max(g))

  /** Fold this round's interval for view `g`, whose sample is the view's
    * rows among `r` scramble rows; `r` ≥ totalRows makes the view exact.
    */
  def update(g: Int, r: Long): Unit =
    if (r >= totalRows) {
      exact(g) = true
      if (m(g) > 0) { lo(g) = mean(g); hi(g) = mean(g) }
    } else {
      val nPlus = CountBound.nUpper(m(g), r, totalRows, deltaK, CountBound.DefaultAlpha)
      val iv    = bounder.interval(stateOf(g), a, b, nPlus, CountBound.DefaultAlpha * deltaK)
      lo(g) = math.max(lo(g), iv.lo)
      hi(g) = math.min(hi(g), iv.hi)
      if (lo(g) > hi(g)) {
        val mid = (lo(g) + hi(g)) / 2
        lo(g) = mid; hi(g) = mid
        if (!crossed(g)) { crossed(g) = true; numCrossed += 1 }
      }
    }

  /** View `g`'s running interval. */
  def interval(g: Int): Interval = Interval(lo(g), hi(g))

  /** Every view for the stop condition; fully covered empty views do not
    * exist and are left out.
    */
  def snapshot(): IndexedSeq[GroupBounds] =
    (0 until numViews).iterator
      .filterNot(g => exact(g) && m(g) == 0)
      .map(g => GroupBounds(g, m(g), mean(g), Interval(lo(g), hi(g)), exact(g)))
      .toIndexedSeq
}
