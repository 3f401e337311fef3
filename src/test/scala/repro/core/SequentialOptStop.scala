package repro.core

/** Sequential reference for Algorithm 5 over a single view, used by
  * [[OptStopSpec]] as the specification of the round logic.
  */
object SequentialOptStop {

  /** Mutable running intersection ⋂ₖ [Lₖ, Rₖ] (Algorithm 5 line 14). */
  final class RunningInterval {
    private var lo: Double = Double.NegativeInfinity
    private var hi: Double = Double.PositiveInfinity

    def observe(iv: Interval): Unit = {
      lo = math.max(lo, iv.lo)
      hi = math.min(hi, iv.hi)
    }

    /** Current intersection. Crossed bounds (possible only on a δ-failure
      * or from clamping artifacts) collapse to the midpoint.
      */
    def current: Interval =
      if (lo <= hi) Interval(lo, hi) else Interval((lo + hi) / 2, (lo + hi) / 2)

    def isEmptyOfObservations: Boolean = lo.isNegInfinity && hi.isPosInfinity
  }

  /** Draw `batchSize` samples per round from `sampler`, recompute the
    * (1−δₖ) interval, stop when `shouldStop` fires or the sampler is
    * exhausted.
    *
    * @return (final running interval, rounds executed, samples consumed)
    */
  def run[S](
      bounder: ErrorBounder[S],
      sampler: Iterator[Double],
      a: Double,
      b: Double,
      n: Long,
      delta: Double,
      batchSize: Int,
      shouldStop: Interval => Boolean,
      maxRounds: Int = Int.MaxValue): (Interval, Int, Long) = {
    require(batchSize > 0, "batchSize must be positive")
    val running = new RunningInterval
    var state   = bounder.init
    var k       = 0
    var taken   = 0L
    var done    = false
    while (!done && k < maxRounds && sampler.hasNext) {
      k += 1
      var i = 0
      while (i < batchSize && sampler.hasNext) {
        state = bounder.update(state, sampler.next())
        taken += 1
        i += 1
      }
      running.observe(bounder.interval(state, a, b, n, OptStop.deltaAtRound(delta, k)))
      done = shouldStop(running.current)
    }
    (running.current, k, taken)
  }
}
