package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.StateFolds._
import scala.util.Random

/** Existential wrapper so contract tests can iterate over bounders with
  * different state types.
  */
final case class AnyBounder(
    name: String,
    lb: (Seq[Double], Double, Double, Long, Double) => Double,
    rb: (Seq[Double], Double, Double, Long, Double) => Double,
    iv: (Seq[Double], Double, Double, Long, Double) => Interval,
    mean: Seq[Double] => Double)

object AnyBounder {
  def of[S](b: ErrorBounder[S]): AnyBounder = AnyBounder(
    b.name,
    (vs, a, bb, n, d) => b.lbound(b.stateOf(vs), a, bb, n, d),
    (vs, a, bb, n, d) => b.rbound(b.stateOf(vs), a, bb, n, d),
    (vs, a, bb, n, d) => b.interval(b.stateOf(vs), a, bb, n, d),
    vs => b.mean(b.stateOf(vs)))

  /** Every SSI bounder in the repo (Table-5 four + known-σ Bernstein,
    * Anderson/DKW, and the streaming RangeTrim variants).
    */
  def allBounders: Seq[AnyBounder] =
    (Bounders.all :+ BernsteinSerfling(sigma = 0.2)).map(of(_)) ++
      Seq(of(AndersonDkw),
        of(RangeTrimStreaming(HoeffdingSerfling)),
        of(RangeTrimStreaming(EmpiricalBernsteinSerfling)))
}

/** Shared contract every SSI error bounder must satisfy (paper §2.2.2 and
  * the dataset-size monotonicity property of §3.3). One group of tests is
  * generated per bounder.
  */
class BounderContractSpec extends AnyFunSuite {

  private val a = -2.0
  private val b = 10.0
  private val n = 100000L

  private def sample(m: Int, seed: Long = 5L): Seq[Double] = {
    val rng = new Random(seed)
    Seq.fill(m)(1.0 + 4.0 * rng.nextDouble() + (if (rng.nextInt(50) == 0) 3.0 else 0.0))
  }

  for (bd <- AnyBounder.allBounders) {

    test(s"[${bd.name}] bounds straddle the sample mean") {
      val vs = sample(500)
      val mu = vs.sum / vs.size
      assert(bd.lb(vs, a, b, n, 0.05) <= mu + 1e-9)
      assert(bd.rb(vs, a, b, n, 0.05) >= mu - 1e-9)
    }

    test(s"[${bd.name}] interval is clamped to the sure range [a, b]") {
      val vs = sample(3)
      val iv = bd.iv(vs, a, b, n, 1e-15)
      assert(iv.lo >= a && iv.hi <= b)
    }

    test(s"[${bd.name}] empty sample yields the trivial interval [a, b]") {
      val iv = bd.iv(Seq.empty, a, b, n, 0.01)
      assert(iv.lo === a)
      assert(iv.hi === b)
    }

    test(s"[${bd.name}] more samples give a narrower interval") {
      val small = bd.iv(sample(100), a, b, n, 0.01)
      val large = bd.iv(sample(5000), a, b, n, 0.01)
      assert(large.width < small.width + 1e-12)
    }

    test(s"[${bd.name}] smaller delta gives a wider (or equal) interval") {
      val vs    = sample(500)
      val loose = bd.iv(vs, a, b, n, 0.1)
      val tight = bd.iv(vs, a, b, n, 1e-12)
      assert(tight.width >= loose.width - 1e-12)
    }

    test(s"[${bd.name}] dataset-size monotonicity: larger N only loosens bounds") {
      val vs = sample(500)
      for (d <- Seq(0.05, 1e-10)) {
        val l1 = bd.lb(vs, a, b, 1000L, d)
        val l2 = bd.lb(vs, a, b, 100000L, d)
        val r1 = bd.rb(vs, a, b, 1000L, d)
        val r2 = bd.rb(vs, a, b, 100000L, d)
        assert(l2 <= l1 + 1e-9, "Lbound must not increase with N")
        assert(r2 >= r1 - 1e-9, "Rbound must not decrease with N")
      }
    }

    test(s"[${bd.name}] bounds are finite and non-NaN for m >= 2") {
      for (m <- Seq(2, 3, 10, 100)) {
        val iv = bd.iv(sample(m), a, b, n, 1e-15)
        assert(!iv.lo.isNaN && !iv.hi.isNaN)
        assert(iv.lo.isFinite && iv.hi.isFinite)
      }
    }

    test(s"[${bd.name}] full-population sample gives a near-degenerate or valid interval") {
      val vs = sample(200)
      val iv = bd.iv(vs, a, b, vs.size.toLong, 0.05)
      val mu = vs.sum / vs.size
      assert(iv.contains(mu))
    }

    test(s"[${bd.name}] point estimate equals the sample mean") {
      val vs = sample(321)
      assert(math.abs(bd.mean(vs) - vs.sum / vs.size) < 1e-9)
    }
  }

  test("interval width never negative after clamping (degenerate inputs)") {
    for (bd <- AnyBounder.allBounders) {
      val iv = bd.iv(Seq(9.99), a, b, 2L, 0.5)
      assert(iv.width >= 0, s"${bd.name} produced negative width")
    }
  }
}
