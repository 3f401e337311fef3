package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.StateFolds._
import scala.util.Random

/** Bernstein-Serfling bounders vs Hoeffding-Serfling (paper §2.2.3):
  * variance-sensitivity is the whole point.
  */
class BernsteinSpec extends AnyFunSuite {

  private def lowVarSample(m: Int): Seq[Double] = {
    val rng = new Random(9L)
    Seq.fill(m)(500.0 + rng.nextGaussian()) // sigma ~ 1 inside [0, 1000]
  }

  test("Bernstein is much tighter than Hoeffding when sigma << (b - a)") {
    val vs = lowVarSample(20000)
    val h  = HoeffdingSerfling.interval(HoeffdingSerfling.stateOf(vs), 0.0, 1000.0, 10000000L, 1e-10)
    val eb = EmpiricalBernsteinSerfling.interval(EmpiricalBernsteinSerfling.stateOf(vs), 0.0, 1000.0, 10000000L, 1e-10)
    // At this m the O((b-a)/m) range term still dominates the empirical
    // bound, so the gap is ~4x here and grows with m.
    assert(eb.width < h.width / 3)
  }

  test("Hoeffding epsilon matches the Algorithm-1 formula") {
    val m = 400L; val n = 100000L; val d = 0.01; val a = 0.0; val b = 10.0
    val expect = (b - a) * math.sqrt(math.log(1 / d) * (1.0 - (m - 1).toDouble / n) / (2.0 * m))
    assert(math.abs(HoeffdingSerfling.epsilon(m, a, b, n, d) - expect) < 1e-12)
  }

  test("Hoeffding width depends only on (b-a) and m, not the values") {
    // Compare raw (unclamped) bounds: epsilon is value-independent.
    val s1 = HoeffdingSerfling.stateOf(Seq.fill(100)(1.0))
    val s2 = HoeffdingSerfling.stateOf(Seq.tabulate(100)(_.toDouble / 10))
    def rawWidth(s: MomentState) =
      HoeffdingSerfling.rbound(s, 0.0, 100.0, 10000L, 0.01) -
        HoeffdingSerfling.lbound(s, 0.0, 100.0, 10000L, 0.01)
    assert(math.abs(rawWidth(s1) - rawWidth(s2)) < 1e-12)
  }

  test("Bernstein width grows with the empirical variance") {
    val tight = EmpiricalBernsteinSerfling.stateOf(Seq.fill(500)(50.0).zipWithIndex.map { case (v, i) => v + (i % 2) })
    val wide  = EmpiricalBernsteinSerfling.stateOf(Seq.tabulate(500)(i => if (i % 2 == 0) 10.0 else 90.0))
    val wTight = EmpiricalBernsteinSerfling.interval(tight, 0.0, 100.0, 100000L, 0.01).width
    val wWide  = EmpiricalBernsteinSerfling.interval(wide, 0.0, 100.0, 100000L, 0.01).width
    assert(wWide > 1.8 * wTight)
  }

  test("empirical epsilon follows the Bardenet-Maillard Theorem-3 shape") {
    val vs = lowVarSample(1000)
    val s  = EmpiricalBernsteinSerfling.stateOf(vs)
    val d  = 0.01; val n = 1000000L; val a = 0.0; val b = 1000.0
    val l      = math.log(5.0 / d)
    val rho    = ErrorBounder.rhoBardenetMaillard(s.m, n)
    val expect = s.stddev * math.sqrt(2 * rho * l / s.m) + Bernstein.KappaEmpirical * (b - a) * l / s.m
    assert(math.abs(EmpiricalBernsteinSerfling.epsilon(s, a, b, n, d) - expect) < 1e-12)
  }

  test("kappa constants match Bardenet-Maillard") {
    assert(math.abs(Bernstein.KappaEmpirical - (7.0 / 3.0 + 3.0 / math.sqrt(2.0))) < 1e-15)
    assert(math.abs(BernsteinSerfling.KappaKnownVariance - 4.0 / 3.0) < 1e-15)
  }

  test("rho factors: Serfling vs Bardenet-Maillard piecewise") {
    assert(math.abs(ErrorBounder.rhoSerfling(100, 1000) - (1.0 - 99.0 / 1000)) < 1e-12)
    // m <= N/2 regime agrees with Serfling's factor
    assert(ErrorBounder.rhoBardenetMaillard(100, 1000) === ErrorBounder.rhoSerfling(100, 1000))
    // beyond half the data the (1 - m/N)(1 + 1/m) branch applies
    val rho = ErrorBounder.rhoBardenetMaillard(800, 1000)
    assert(math.abs(rho - (1.0 - 0.8) * (1.0 + 1.0 / 800)) < 1e-12)
    // both shrink toward 0 as the sample approaches the population
    assert(ErrorBounder.rhoBardenetMaillard(999, 1000) < 0.01)
  }

  test("rho is clamped at zero when an N upper bound is exceeded") {
    assert(ErrorBounder.rhoSerfling(200, 100) === 0.0)
  }

  test("known-variance bounder uses the supplied sigma") {
    val vs = lowVarSample(1000)
    val sKnown = BernsteinSerfling(sigma = 1.0)
    val wide   = BernsteinSerfling(sigma = 100.0)
    val s      = sKnown.stateOf(vs)
    assert(sKnown.interval(s, 0.0, 1000.0, 1000000L, 0.01).width <
           wide.interval(s, 0.0, 1000.0, 1000000L, 0.01).width)
  }

  test("known-variance bounder rejects negative sigma") {
    assertThrows[IllegalArgumentException](BernsteinSerfling(-1.0))
  }

  test("empirical and known-variance widths are comparable at large m") {
    val vs    = lowVarSample(20000)
    val s     = EmpiricalBernsteinSerfling.stateOf(vs)
    val known = BernsteinSerfling(s.stddev)
    val wEmp   = EmpiricalBernsteinSerfling.interval(s, 0.0, 1000.0, 10000000L, 0.01).width
    val wKnown = known.interval(s, 0.0, 1000.0, 10000000L, 0.01).width
    // Empirical pays kappa 4.45 vs 4/3 and log(5/d) vs log(3/d): ~3.5x here.
    assert(wEmp < 4 * wKnown)
    assert(wKnown < wEmp + 1e-9) // empirical pays slightly worse constants
  }
}
