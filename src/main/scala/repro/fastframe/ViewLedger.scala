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
  * The ledger also owns the active set (paper §4.3): every view starts
  * active, and [[endRound]] runs one round of Algorithm 5 over it. A
  * view's N⁺ counts the rows passed while it was active, since only
  * those were sampled for it (fetched, or provably without its rows).
  *
  * FastFrame folds rows into partial moment arrays of the same layout
  * ([[ViewLedger.fold]]) and merges them in with [[merge]]; engines that
  * aggregate elsewhere overwrite a view's moments with [[set]]. Stopping
  * conditions read the ledger's columns in place as a [[ViewTable]].
  *
  * @param totalRows rows in the scramble; a view that has covered all of
  *                  them is exact
  */
final class ViewLedger(
    val numViews: Int,
    bounder: MomentBounder,
    a: Double,
    b: Double,
    delta: Double,
    totalRows: Long) extends ViewTable {

  private val mom          = ViewLedger.emptyMoments(numViews)
  private val isExact      = new Array[Boolean](numViews)
  private val runLo        = Array.fill(numViews)(a)
  private val runHi        = Array.fill(numViews)(b)
  private val crossed      = new Array[Boolean](numViews)
  private var numCrossed   = 0
  private val deltaPerView = delta / numViews
  private var deltaK       = 0.0
  private var round        = 0
  // The active set; per view, the rows passed while it was active up to
  // the last round's end, at lastCovered rows passed in all; the stop
  // condition's verdict and its sort space.
  private[fastframe] val activeFlags = Array.fill(numViews)(true)
  private var numActiveViews         = numViews
  private val coveredRows            = new Array[Long](numViews)
  private var lastCovered            = 0L
  private val wanted                 = new Array[Boolean](numViews)
  private val scratch                = new StopCondition.Scratch(numViews)

  def m(g: Int): Long      = mom(5 * g).toLong
  def mean(g: Int): Double = mom(5 * g + 1)
  def lo(g: Int): Double   = runLo(g)
  def hi(g: Int): Double   = runHi(g)

  /** Has view `g` covered every scramble row? */
  def exact(g: Int): Boolean = isExact(g)

  /** Fully covered empty views do not exist. */
  def present(g: Int): Boolean = !isExact(g) || mom(5 * g) > 0

  /** Rounds started so far. */
  def rounds: Int = round

  /** Views whose running intersection has crossed at least once; each
    * is a δ-failure, which the guarantee bounds in probability by δ.
    */
  def crossedViews: Int = numCrossed

  /** Is view `g` still sampled? */
  def active(g: Int): Boolean = activeFlags(g)

  /** Views still sampled; the run is over when none is. */
  def numActive: Int = numActiveViews

  /** End a round once `covered` scramble rows have been passed in all:
    * start round k, update every view that is active or has covered every
    * row, and let `stop` decide which views stay active. Returns whether
    * the active set changed.
    */
  def endRound(covered: Long, stop: StopCondition): Boolean = {
    nextRound()
    val step = covered - lastCovered
    lastCovered = covered
    var g = 0
    while (g < numViews) {
      if (activeFlags(g)) coveredRows(g) += step
      if (activeFlags(g) || coveredRows(g) >= totalRows) update(g, coveredRows(g))
      g += 1
    }
    numActiveViews = stop.mark(this, wanted, scratch)
    val changed = !java.util.Arrays.equals(activeFlags, wanted)
    System.arraycopy(wanted, 0, activeFlags, 0, numViews)
    changed
  }

  /** Start the next round k: δₖ for every view update until the next call. */
  private[fastframe] def nextRound(): Unit = {
    round += 1
    deltaK = OptStop.deltaAtRound(deltaPerView, round)
  }

  /** Merge each of the first `count` of `views` from the partial moments
    * `part` into the ledger (Chan et al., as [[MomentState.merge]]) and
    * empty it in `part`.
    */
  def merge(part: Array[Double], views: Array[Int], count: Int): Unit = {
    var k = 0
    while (k < count) {
      val i  = 5 * views(k)
      val mb = part(i)
      if (mb > 0) {
        val ma = mom(i)
        if (ma == 0) System.arraycopy(part, i, mom, i, 5)
        else {
          val m = ma + mb
          val d = part(i + 1) - mom(i + 1)
          mom(i + 2) = mom(i + 2) + part(i + 2) + d * d * ma * mb / m
          mom(i + 1) = mom(i + 1) + d * mb / m
          mom(i) = m
          mom(i + 3) = math.min(mom(i + 3), part(i + 3))
          mom(i + 4) = math.max(mom(i + 4), part(i + 4))
        }
        ViewLedger.clear(part, views(k))
      }
      k += 1
    }
  }

  /** Overwrite view `g`'s moments (for engines that aggregate elsewhere). */
  def set(g: Int, s: MomentState): Unit = {
    val i = 5 * g
    mom(i) = s.m.toDouble; mom(i + 1) = s.mean; mom(i + 2) = s.m2; mom(i + 3) = s.min; mom(i + 4) = s.max
  }

  def stateOf(g: Int): MomentState = {
    val i = 5 * g
    if (mom(i) == 0) MomentState.empty
    else MomentState(mom(i).toLong, mom(i + 1), mom(i + 2), mom(i + 3), mom(i + 4))
  }

  /** Fold this round's interval for view `g`, whose sample is the view's
    * rows among `r` scramble rows; `r` ≥ totalRows makes the view exact.
    * A crossed pair of one-sided bounds is a crossing like any other.
    */
  private[fastframe] def update(g: Int, r: Long): Unit =
    if (r >= totalRows) {
      isExact(g) = true
      if (m(g) > 0) { runLo(g) = mean(g); runHi(g) = mean(g) }
    } else {
      val nPlus = CountBound.nUpper(m(g), r, totalRows, deltaK, CountBound.DefaultAlpha)
      val s     = stateOf(g)
      val d     = CountBound.DefaultAlpha * deltaK
      runLo(g) = math.max(runLo(g), bounder.lower(s, a, b, nPlus, d))
      runHi(g) = math.min(runHi(g), bounder.upper(s, a, b, nPlus, d))
      if (runLo(g) > runHi(g)) {
        val mid = (runLo(g) + runHi(g)) / 2
        runLo(g) = mid; runHi(g) = mid
        if (!crossed(g)) { crossed(g) = true; numCrossed += 1 }
      }
    }

  /** View `g`'s running interval. */
  def interval(g: Int): Interval = Interval(runLo(g), runHi(g))

  /** Every present view, in gid order. */
  def snapshot(): IndexedSeq[GroupBounds] =
    (0 until numViews).iterator
      .filter(present)
      .map(g => GroupBounds(g, m(g), mean(g), interval(g), isExact(g)))
      .toIndexedSeq
}

/** The ledger's moment layout, shared with the partial arrays a round
  * folds into. View g's moments sit at mom(5g) … mom(5g + 4): the count
  * (a double, exact below 2^53), mean, m2, min and max. One array keeps a
  * view's moments together and costs the row loop one field load per row.
  */
object ViewLedger {

  /** A moment array of `numViews` empty views. */
  private[fastframe] def emptyMoments(numViews: Int): Array[Double] = {
    val mom = new Array[Double](math.multiplyExact(5, numViews))
    var g = 0
    while (g < numViews) { clear(mom, g); g += 1 }
    mom
  }

  private def clear(mom: Array[Double], g: Int): Unit = {
    val i = 5 * g
    mom(i) = 0.0; mom(i + 1) = 0.0; mom(i + 2) = 0.0
    mom(i + 3) = Double.PositiveInfinity; mom(i + 4) = Double.NegativeInfinity
  }

  /** Fold value `v` into view `g` of `mom` (Welford, as [[MomentState.update]]). */
  @inline private[fastframe] def fold(mom: Array[Double], g: Int, v: Double): Unit = {
    val i     = 5 * g
    val m1    = mom(i) + 1
    val d     = v - mom(i + 1)
    val mean1 = mom(i + 1) + d / m1
    mom(i + 2) += d * (v - mean1)
    mom(i + 1) = mean1
    mom(i) = m1
    if (v < mom(i + 3)) mom(i + 3) = v
    if (v > mom(i + 4)) mom(i + 4) = v
  }
}
