package repro.core

/** RangeTrim meta-bounder (paper §3.2, Algorithm 4): eliminates phantom
  * outlier sensitivity (PHOS) from any SSI range-based bounder by
  * asymmetrizing it —
  *
  *   - Lbound is computed over S − {max S} with range [a, max S] and
  *     dataset size N−1, so it never references the global upper bound b;
  *   - Rbound is computed over S − {min S} with range [min S, b] and
  *     dataset size N−1, so it never references the global lower bound a.
  *
  * Correctness (paper Theorem 2) rests on Lemma 4: conditioned on
  * max S = b′, the remaining sample is a uniform without-replacement
  * sample from D ∩ [a, b′), whose average lower-bounds AVG(D); dataset-size
  * monotonicity lets N−1 stand in for |D ∩ [a, b′)|.
  *
  * This class implements the paper's *conceptual* three-step form directly
  * on [[MomentState]] via an exact moment downdate; unlike the streaming
  * clip of Algorithm 6 (`RangeTrimStreaming`, a test-scope reference) the
  * state remains mergeable and therefore usable as a distributed Spark
  * aggregation buffer.
  *
  * @param inner any moment-based SSI range-based bounder (e.g.
  *              [[HoeffdingSerfling]] or [[EmpiricalBernsteinSerfling]])
  */
final case class RangeTrim(inner: MomentBounder) extends MomentBounder {

  override def name: String = s"${inner.name}+RT"

  override def lbound(s: MomentState, a: Double, b: Double, n: Long, delta: Double): Double =
    if (s.isEmpty) a
    else {
      val trimmed = MomentState.remove(s, s.max)
      inner.lbound(trimmed, a, s.max, math.max(1L, n - 1), delta)
    }

  override def rbound(s: MomentState, a: Double, b: Double, n: Long, delta: Double): Double =
    if (s.isEmpty) b
    else {
      val trimmed = MomentState.remove(s, s.min)
      inner.rbound(trimmed, s.min, b, math.max(1L, n - 1), delta)
    }
}
