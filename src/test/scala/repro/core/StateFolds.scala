package repro.core

/** Test conveniences that fold a whole collection into a state, written
  * as `MomentState.of(vs)` and `bounder.stateOf(vs)` once imported.
  */
object StateFolds {

  implicit class MomentStateOf(private val c: MomentState.type) extends AnyVal {
    def of(vs: Iterable[Double]): MomentState = vs.foldLeft(MomentState.empty)(MomentState.update)
  }

  implicit class BounderStateOf[S](private val b: ErrorBounder[S]) extends AnyVal {
    def stateOf(vs: Iterable[Double]): S = vs.foldLeft(b.init)(b.update)
  }
}
