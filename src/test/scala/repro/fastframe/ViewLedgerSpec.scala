package repro.fastframe

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertyChecks
import repro.core.{Bounders, CountBound, Interval, MomentBounder, MomentState, OptStop}
import repro.core.StateFolds._
import scala.util.Random

/** The Algorithm-5 / Theorem-3 bookkeeping shared by both engines. */
class ViewLedgerSpec extends AnyFunSuite with PropertyChecks {

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
    // Bounds scripted per round; ErrorBounder.lower and upper clamp them to [a, b].
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

  test("a crossed pair of one-sided bounds is counted as a crossing, not swapped") {
    val bd = new MomentBounder {
      val name = "crossed"
      def lbound(s: MomentState, a: Double, b: Double, n: Long, d: Double): Double = 6.0
      def rbound(s: MomentState, a: Double, b: Double, n: Long, d: Double): Double = 4.0
    }
    val ledger = new ViewLedger(1, bd, 0.0, 10.0, 0.01, 1000L)
    ledger.nextRound()
    ledger.update(0, 10L)
    assert(ledger.crossedViews === 1)
    assert(ledger.interval(0) === Interval(5.0, 5.0))
    assertThrows[IllegalArgumentException](bd.interval(MomentState.empty, 0.0, 10.0, 1000L, 0.01))
  }

  test("endRound bounds each view with the rows passed while it was active") {
    // Bounds are [a, b]; the bounder records each call's (m, N⁺).
    val calls = collection.mutable.ArrayBuffer.empty[(Long, Long)]
    val bd = new MomentBounder {
      val name = "recording"
      def lbound(s: MomentState, a: Double, b: Double, n: Long, d: Double): Double = { calls += ((s.m, n)); a }
      def rbound(s: MomentState, a: Double, b: Double, n: Long, d: Double): Double = b
    }
    val (delta, total) = (1e-3, 1000L)
    val ledger = new ViewLedger(2, bd, 0.0, 10.0, delta, total)
    val stop   = StopCondition.DesiredSamples(10)
    def ofSize(m: Int, v: Double) = MomentState.of(Seq.fill(m)(v))
    def nPlus(m: Long, r: Long, k: Int) =
      CountBound.nUpper(m, r, total, OptStop.deltaAtRound(delta / 2, k), CountBound.DefaultAlpha)
    // View 1 keeps 3 samples and stays active; view 0's sample size goes
    // 5 → 20 (inactive) → 6 (active again) → 8.
    ledger.set(1, ofSize(3, 2.0))
    val rounds = Seq(
      // (view 0's new state, rows passed, set changed, calls as (m, r))
      (Some(ofSize(5, 1.0)), 100L, false, Seq(5L -> 100L, 3L -> 100L)),
      (Some(ofSize(20, 1.0)), 300L, true, Seq(20L -> 300L, 3L -> 300L)),
      (None, 600L, false, Seq(3L -> 600L)),
      (Some(ofSize(6, 1.0)), 700L, true, Seq(3L -> 700L)),
      // Active in rounds 1-2 (300 rows) and since round 4's end (200 rows).
      (Some(ofSize(8, 1.0)), 900L, false, Seq(8L -> 500L, 3L -> 900L)),
      // View 1 has covered every row; view 0 only 600 of them.
      (None, 1000L, true, Seq(8L -> 600L)))
    for (((st, covered, changed, expect), i) <- rounds.zipWithIndex) {
      val k = i + 1
      st.foreach(ledger.set(0, _))
      calls.clear()
      assert(ledger.endRound(covered, stop) === changed, s"round $k")
      assert(calls === expect.map { case (m, r) => m -> nPlus(m, r, k) }, s"round $k")
    }
    assert(nPlus(8, 500, 5) !== nPlus(8, 900, 5))
    assert(ledger.exact(1) && ledger.interval(1) === Interval(2.0, 2.0))
    assert(!ledger.exact(0) && ledger.active(0) && !ledger.active(1))
    assert(ledger.numActive === 1)
  }

  /** Partial moment arrays of `numViews` views, one per list of (view, value) pairs. */
  private def partialsOf(numViews: Int, parts: Seq[Seq[(Int, Double)]]): Seq[Array[Double]] =
    parts.map { pairs =>
      val part = ViewLedger.emptyMoments(numViews)
      pairs.foreach { case (g, v) => ViewLedger.fold(part, g, v) }
      part
    }

  test("merging partials agrees with a sequential update fold and empties the partials") {
    val (a, b)   = (-50.0, 200.0)
    val numViews = 3
    val value    = Gen.frequency(1 -> Gen.const(a), 1 -> Gen.const(b), 6 -> Gen.chooseNum(a, b))
    val pair     = Gen.zip(Gen.choose(0, numViews - 1), value)
    // Empty and one-value partials among longer ones.
    val part     = Gen.frequency(1 -> Gen.const(Nil), 1 -> pair.map(List(_)), 4 -> Gen.listOf(pair))
    forAll(Gen.choose(0, 5).flatMap(Gen.listOfN(_, part))) { parts =>
      val ledger = new ViewLedger(numViews, Bounders.BernsteinRT, a, b, 1e-6, 1000L)
      val views  = Array.tabulate(numViews)(identity)
      val arrays = partialsOf(numViews, parts)
      arrays.foreach(ledger.merge(_, views, views.length))
      arrays.foreach(p => assert(p.sameElements(ViewLedger.emptyMoments(numViews))))
      for (g <- views) {
        val expect = parts.flatten.collect { case (`g`, v) => v }.foldLeft(MomentState.empty)(MomentState.update)
        val got    = ledger.stateOf(g)
        assert(got.m === expect.m)
        assert(got.min === expect.min && got.max === expect.max)
        assert(math.abs(got.mean - expect.mean) <= 1e-12 * math.max(math.abs(a), math.abs(b)))
        assert(math.abs(got.m2 - expect.m2) <= 1e-12 * math.max(expect.m2, (b - a) * (b - a)))
      }
    }
  }

  test("one partial merged into empty views equals the sequential fold exactly") {
    val rng    = new Random(4L)
    val pairs  = Seq.fill(500)((rng.nextInt(2), rng.nextGaussian() * 10))
    val ledger = new ViewLedger(2, Bounders.BernsteinRT, -100.0, 100.0, 1e-6, 1000L)
    ledger.merge(partialsOf(2, Seq(pairs)).head, Array(0, 1), 2)
    for (g <- 0 to 1)
      assert(ledger.stateOf(g) === MomentState.of(pairs.collect { case (`g`, v) => v }))
  }

  test("merge touches only the listed views") {
    val ledger = new ViewLedger(2, Bounders.BernsteinRT, 0.0, 10.0, 1e-6, 1000L)
    val part   = partialsOf(2, Seq(Seq(0 -> 1.0, 1 -> 2.0))).head
    ledger.merge(part, Array(1), 1)
    assert(ledger.stateOf(0) === MomentState.empty)
    assert(ledger.stateOf(1) === MomentState.of(Seq(2.0)))
    // View 0 stays in the partial: merging it elsewhere finds its value.
    val other = new ViewLedger(2, Bounders.BernsteinRT, 0.0, 10.0, 1e-6, 1000L)
    other.merge(part, Array(0), 1)
    assert(other.stateOf(0) === MomentState.of(Seq(1.0)))
  }
}
