package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropertyChecks
import scala.util.Random

/** Selectivity / COUNT bounds and the Theorem-3 online N⁺ (paper §4.1). */
class CountBoundSpec extends AnyFunSuite with PropertyChecks {

  test("epsilon matches the Lemma-5 formula") {
    val r = 400L; val bigR = 10000L; val d = 0.05
    val expect = math.sqrt(math.log(1 / d) * (1.0 - (r - 1).toDouble / bigR) / (2.0 * r))
    assert(math.abs(CountBound.epsilon(r, bigR, d) - expect) < 1e-12)
  }

  test("epsilon is clamped to [0, 1] and trivial before any rows") {
    assert(CountBound.epsilon(0, 100, 0.5) === 1.0)
    assert(CountBound.epsilon(1, 100, 1e-300) === 1.0)
  }

  test("selectivity interval is within [0, 1] and centered on the estimate") {
    forAll(Gen.chooseNum(1L, 1000L), Gen.chooseNum(0.001, 0.5)) { (r, d) =>
      val mV = r / 3
      val iv = ViewCount.selectivityInterval(mV, r, 10000L, d)
      assert(iv.lo >= 0.0 && iv.hi <= 1.0)
      assert(iv.contains(mV.toDouble / r))
    }
  }

  test("count interval floors at the observed count and caps at R") {
    val iv = ViewCount.countInterval(mV = 50, r = 100, bigR = 1000, delta = 0.5)
    assert(iv.lo >= 50.0)
    assert(iv.hi <= 1000.0)
  }

  test("nUpper is never below max(mV, 1)") {
    forAll(Gen.chooseNum(0L, 500L), Gen.chooseNum(501L, 2000L)) { (mV, r) =>
      val n = CountBound.nUpper(mV, r, 100000L, 1e-10)
      assert(n >= math.max(1L, mV))
    }
  }

  test("nUpper shrinks toward the true count as the scan progresses") {
    val bigR = 100000L
    val sel  = 0.2
    def nPlus(r: Long) = CountBound.nUpper((sel * r).toLong, r, bigR, 1e-10)
    assert(nPlus(50000) < nPlus(1000))
    assert(nPlus(50000) >= (sel * bigR).toLong)
  }

  test("nUpper rejects alpha outside (0,1)") {
    assertThrows[IllegalArgumentException](CountBound.nUpper(1, 10, 100, 0.1, alpha = 1.0))
  }

  test("hypergeometric coverage: selectivity CI contains the true selectivity") {
    val bigR = 5000
    val trueN = 1000 // selectivity 0.2
    val member = Array.tabulate(bigR)(i => i < trueN)
    val delta  = 0.1
    var fails  = 0
    val trials = 200
    for (t <- 1 to trials) {
      val rng  = new Random(t.toLong)
      val perm = rng.shuffle(member.toVector)
      val r    = 400
      val mV   = perm.take(r).count(identity)
      val iv   = ViewCount.selectivityInterval(mV.toLong, r.toLong, bigR.toLong, delta)
      if (!iv.contains(trueN.toDouble / bigR)) fails += 1
    }
    assert(fails <= math.max(3, (delta * trials).toInt))
  }

  test("N+ upper-bounds the true view size w.h.p.") {
    val bigR   = 5000
    val trueN  = 750
    val member = Array.tabulate(bigR)(i => i < trueN)
    var fails  = 0
    for (t <- 1 to 200) {
      val rng  = new Random(100L + t)
      val perm = rng.shuffle(member.toVector)
      val r    = 600
      val mV   = perm.take(r).count(identity)
      if (CountBound.nUpper(mV.toLong, r.toLong, bigR.toLong, 0.05) < trueN) fails += 1
    }
    // One-sided failure budget is (1-alpha)*delta = 5e-4 per trial.
    assert(fails === 0)
  }
}
