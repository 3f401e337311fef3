package repro.core

/** State for [[RangeTrimStreaming]]: left/right inner states built from
  * clipped values, plus the running extrema a′/b′ (paper Algorithm 6).
  * `full` tracks the untrimmed sample so `mean`/`count` report ĝ and m.
  */
final case class RangeTrimState(
    sl: MomentState,
    sr: MomentState,
    aPrime: Double,
    bPrime: Double,
    full: MomentState)

/** Faithful streaming implementation of the RangeTrim bounder (paper
  * Algorithm 6 / Algorithm 4): values after the first are folded into the
  * left (right) state clipped at the running max b′ (min a′). Requires
  * sequential consumption of the sample — `merge` is unsupported, which is
  * precisely why the engines use the mergeable [[RangeTrim]] instead.
  */
final case class RangeTrimStreaming(inner: MomentBounder) extends ErrorBounder[RangeTrimState] {

  override def name: String = s"${inner.name}+RT(stream)"

  override def init: RangeTrimState =
    RangeTrimState(MomentState.empty, MomentState.empty, Double.NaN, Double.NaN, MomentState.empty)

  override def update(s: RangeTrimState, v: Double): RangeTrimState = {
    val full = MomentState.update(s.full, v)
    if (s.full.isEmpty) {
      // First sample only seeds a′ and b′ (Algorithm 6 lines 9–13).
      RangeTrimState(s.sl, s.sr, v, v, full)
    } else {
      RangeTrimState(
        sl = MomentState.update(s.sl, math.min(v, s.bPrime)),
        sr = MomentState.update(s.sr, math.max(v, s.aPrime)),
        aPrime = math.min(s.aPrime, v),
        bPrime = math.max(s.bPrime, v),
        full = full)
    }
  }

  override def merge(a: RangeTrimState, b: RangeTrimState): RangeTrimState =
    throw new UnsupportedOperationException(
      "RangeTrimStreaming state is order-dependent and not mergeable; use RangeTrim")

  override def count(s: RangeTrimState): Long = s.full.m

  override def mean(s: RangeTrimState): Double = s.full.mean

  override def lbound(s: RangeTrimState, a: Double, b: Double, n: Long, delta: Double): Double =
    if (s.full.isEmpty) a
    else inner.lbound(s.sl, a, s.bPrime, math.max(1L, n - 1), delta)

  override def rbound(s: RangeTrimState, a: Double, b: Double, n: Long, delta: Double): Double =
    if (s.full.isEmpty) b
    else inner.rbound(s.sr, s.aPrime, b, math.max(1L, n - 1), delta)
}
