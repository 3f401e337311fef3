package repro.core

/** Optional-stopping support (paper Algorithm 5, "OptStop").
  *
  * Sampling proceeds in rounds; at the end of round k the error probability
  * handed to the bounder is decayed to δₖ = (6/π²)·δ/k², so that
  * Σₖ δₖ = δ (Theorem 4) and the *running intersection* of per-round
  * intervals is a sequentially valid (1−δ) CI — recomputing a fixed-δ CI
  * every round would silently forfeit the guarantee (the mistake the paper
  * calls out in [20]). The engines keep that intersection per view in
  * `repro.fastframe.ViewLedger`.
  */
object OptStop {

  private val SixOverPiSq: Double = 6.0 / (math.Pi * math.Pi)

  /** Error budget for round k ≥ 1: δₖ = (6/π²)·δ/k². */
  def deltaAtRound(delta: Double, k: Int): Double = {
    require(k >= 1, s"round index must be >= 1, got $k")
    SixOverPiSq * delta / (k.toDouble * k.toDouble)
  }
}
