package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropertyChecks
import repro.core.StateFolds._
import scala.util.Random

/** RangeTrim-specific behavior (paper §3.2–3.3): PHOS elimination,
  * trimmed-range mechanics, and agreement between the mergeable
  * (conceptual) and streaming (Algorithm 6) implementations.
  */
class RangeTrimSpec extends AnyFunSuite with PropertyChecks {

  private val a = 0.0
  private val b = 1000.0
  private val n = 100000L

  private def interiorSample(m: Int, lo: Double, hi: Double, seed: Long = 3L): Seq[Double] = {
    val rng = new Random(seed)
    Seq.fill(m)(lo + (hi - lo) * rng.nextDouble())
  }

  private val rtBounders: Seq[MomentBounder] = Seq(Bounders.HoeffdingRT, Bounders.BernsteinRT)

  for (bd <- rtBounders) {
    test(s"[${bd.name}] Lbound is exactly independent of b (no PHOS, lower side)") {
      val s = bd.stateOf(interiorSample(300, 10, 60))
      val l1 = bd.lbound(s, a, b, n, 0.01)
      val l2 = bd.lbound(s, a, b * 100, n, 0.01)
      assert(l1 === l2)
    }

    test(s"[${bd.name}] Rbound is exactly independent of a (no PHOS, upper side)") {
      val s = bd.stateOf(interiorSample(300, 10, 60))
      val r1 = bd.rbound(s, a, b, n, 0.01)
      val r2 = bd.rbound(s, a - 1e6, b, n, 0.01)
      assert(r1 === r2)
    }

    test(s"[${bd.name}] bounds are asymmetric in general") {
      // §3.1: a PHOS-free bounder cannot return ĝ ± ε with one ε.
      val vs = interiorSample(300, 10, 60)
      val s  = bd.stateOf(vs)
      val mu = vs.sum / vs.size
      val el = mu - bd.lbound(s, a, b, n, 0.01)
      val er = bd.rbound(s, a, b, n, 0.01) - mu
      assert(math.abs(el - er) > 1e-9)
    }
  }

  test("RangeTrim(Hoeffding) is tighter than Hoeffding when the observed range is small") {
    val vs = interiorSample(500, 100, 160) // observed range 60 vs catalog 1000
    val plain = HoeffdingSerfling.interval(HoeffdingSerfling.stateOf(vs), a, b, n, 0.01)
    val rt    = Bounders.HoeffdingRT.interval(Bounders.HoeffdingRT.stateOf(vs), a, b, n, 0.01)
    assert(rt.width < plain.width)
  }

  test("RangeTrim(Bernstein) is tighter than Bernstein when the observed range is small") {
    val vs = interiorSample(500, 100, 160)
    val plain = EmpiricalBernsteinSerfling.interval(EmpiricalBernsteinSerfling.stateOf(vs), a, b, n, 0.01)
    val rt    = Bounders.BernsteinRT.interval(Bounders.BernsteinRT.stateOf(vs), a, b, n, 0.01)
    assert(rt.width < plain.width)
  }

  test("RangeTrim lower bound uses [a, max S] as the trimmed range") {
    // With max S tiny relative to b, the Hoeffding+RT epsilon must scale
    // with (max S − a), not (b − a).
    val vs = interiorSample(400, 5, 10)
    val s  = Bounders.HoeffdingRT.stateOf(vs)
    val trimmed = MomentState.remove(s, s.max)
    val expected = HoeffdingSerfling.lbound(trimmed, a, s.max, n - 1, 0.01)
    assert(Bounders.HoeffdingRT.lbound(s, a, b, n, 0.01) === expected)
  }

  test("RangeTrim on a single-value sample degrades to the trivial bounds") {
    val s = Bounders.BernsteinRT.stateOf(Seq(5.0))
    assert(Bounders.BernsteinRT.lbound(s, a, b, n, 0.01) === a)
    // Upper bound likewise: trimming removes the only sample.
    assert(Bounders.BernsteinRT.rbound(s, a, b, n, 0.01) === b)
  }

  test("streaming RangeTrim state rejects merge") {
    val bd = RangeTrimStreaming(HoeffdingSerfling)
    val s  = bd.stateOf(Seq(1.0, 2.0))
    assertThrows[UnsupportedOperationException](bd.merge(s, s))
  }

  test("streaming RangeTrim tracks running extrema and clips correctly") {
    val bd = RangeTrimStreaming(HoeffdingSerfling)
    val s  = bd.stateOf(Seq(5.0, 9.0, 1.0, 7.0))
    assert(s.aPrime === 1.0)
    assert(s.bPrime === 9.0)
    // sl holds min(v, running max): 9→min(9,5)=5, 1→min(1,9)=1, 7→min(7,9)=7
    assert(s.sl.m === 3)
    assert(math.abs(s.sl.mean - (5.0 + 1.0 + 7.0) / 3) < 1e-12)
    // sr holds max(v, running min): 9→max(9,5)=9, 1→max(1,5)=5, 7→max(7,1)=7
    assert(math.abs(s.sr.mean - (9.0 + 5.0 + 7.0) / 3) < 1e-12)
  }

  test("conceptual and streaming RangeTrim give similar widths on random samples") {
    forAll(Gen.chooseNum(50, 400)) { m =>
      val vs = interiorSample(m, 20, 80, seed = m.toLong)
      val conceptual = Bounders.BernsteinRT.interval(Bounders.BernsteinRT.stateOf(vs), a, b, n, 0.01)
      val streaming = {
        val bd = RangeTrimStreaming(EmpiricalBernsteinSerfling)
        bd.interval(bd.stateOf(vs), a, b, n, 0.01)
      }
      // Same trimmed range; states differ by at most the clipping of
      // early samples, so widths agree to within a factor of 2.
      assert(streaming.width < 2 * conceptual.width + 1e-9)
      assert(conceptual.width < 2 * streaming.width + 1e-9)
    }
  }

  test("RangeTrim preserves coverage when the catalog range is very loose") {
    // Outlier-free data, catalog range 100x larger than the data spread.
    val rng  = new Random(11L)
    val data = Array.fill(1500)(40 + 20 * rng.nextDouble())
    val mu   = data.sum / data.length
    var fails = 0
    for (t <- 1 to 200) {
      val vs = new Random(t.toLong).shuffle(data.toVector).take(120)
      val iv = Bounders.BernsteinRT.interval(Bounders.BernsteinRT.stateOf(vs), 0.0, 5000.0, 1500L, 0.1)
      if (!iv.contains(mu)) fails += 1
    }
    assert(fails <= 20)
  }
}
