package repro.fastframe

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Bounders, CountBound, Interval, MomentBounder, MomentState, OptStop}
import scala.util.Random

/** The Algorithm-5 / Theorem-3 bookkeeping shared by both engines. */
class ViewLedgerSpec extends AnyFunSuite {

  test("one view's trajectory is the hand composition of deltaAtRound, nUpper, interval and intersection") {
    val (a, b, delta, total) = (0.0, 10.0, 1e-6, 20000L)
    val bd     = Bounders.BernsteinRT
    val ledger = new ViewLedger(3, bd, a, b, delta, total)
    val rng    = new Random(9L)
    var st     = MomentState.empty
    var lo     = a
    var hi     = b
    for (k <- 1 to 6) {
      for (_ <- 1 to 150) st = MomentState.update(st, 4.0 + rng.nextGaussian())
      val r = 1000L * k
      ledger.nextRound()
      ledger.set(1, st)
      ledger.update(1, r)

      val dk    = OptStop.deltaAtRound(delta / 3, k)
      val nPlus = CountBound.nUpper(st.m, r, total, dk, CountBound.DefaultAlpha)
      val iv    = bd.interval(st, a, b, nPlus, CountBound.DefaultAlpha * dk)
      lo = math.max(lo, iv.lo)
      hi = math.min(hi, iv.hi)
      if (lo > hi) { lo = (lo + hi) / 2; hi = lo }
      assert(ledger.rounds === k)
      assert(ledger.interval(1) === Interval(lo, hi), s"round $k")
    }
    assert(ledger.stateOf(1) === st)
    assert(!ledger.exact(1))
  }

  test("a fully covered view becomes exact with a point interval at its mean") {
    val ledger = new ViewLedger(1, Bounders.Hoeffding, 0.0, 1.0, 0.01, 100L)
    ledger.nextRound()
    ledger.set(0, MomentState.of(Seq(0.25, 0.75, 0.5)))
    ledger.update(0, 100L)
    assert(ledger.exact(0))
    assert(ledger.interval(0) === Interval(0.5, 0.5))
  }

  test("snapshot keeps unseen views at [a, b] and drops fully covered empty ones") {
    val ledger = new ViewLedger(3, Bounders.BernsteinRT, -1.0, 5.0, 1e-6, 1000L)
    ledger.nextRound()
    ledger.set(0, MomentState.of(Seq(1.0, 2.0)))
    ledger.update(0, 500L)
    ledger.update(1, 500L) // not seen yet
    ledger.update(2, 1000L) // covered, no rows: the view does not exist
    val snap = ledger.snapshot()
    assert(snap.map(_.gid) === Seq(0, 1))
    assert(snap(1) === GroupBounds(1, 0L, 0.0, Interval(-1.0, 5.0), exact = false))
  }

  test("a crossed intersection collapses to its midpoint and the collapse persists") {
    // Bounds scripted per round; ErrorBounder.interval clamps them to [a, b].
    val script = Iterator(Interval(5.0, 6.0), Interval(8.0, 9.0), Interval(1.0, 10.0), Interval(7.5, 9.0))
    var next   = Interval(0.0, 0.0)
    val bd = new MomentBounder {
      val name = "scripted"
      def lbound(s: MomentState, a: Double, b: Double, n: Long, d: Double): Double = next.lo
      def rbound(s: MomentState, a: Double, b: Double, n: Long, d: Double): Double = next.hi
    }
    val ledger = new ViewLedger(1, bd, 0.0, 10.0, 0.01, 1000L)
    val seen = script.map { iv =>
      next = iv
      ledger.nextRound()
      ledger.update(0, 10L)
      ledger.interval(0)
    }.toList
    assert(seen === List(Interval(5.0, 6.0), Interval(7.0, 7.0), Interval(7.0, 7.0), Interval(7.25, 7.25)))
    // Crossed twice, but one view: counted once.
    assert(ledger.crossedViews === 1)
  }
}
