package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropertyChecks
import repro.core.StateFolds._

/** Unit and property tests for the Welford/Chan moment state. */
class MomentStateSpec extends AnyFunSuite with PropertyChecks {

  private val values: Gen[List[Double]] =
    Gen.nonEmptyListOf(Gen.chooseNum(-1e3, 1e3))

  private def naiveMean(vs: Seq[Double]): Double = vs.sum / vs.size
  private def naiveM2(vs: Seq[Double]): Double = {
    val mu = naiveMean(vs)
    vs.map(v => (v - mu) * (v - mu)).sum
  }

  test("empty state has zero count, infinite extrema") {
    val e = MomentState.empty
    assert(e.m === 0L)
    assert(e.isEmpty)
    assert(e.min.isPosInfinity && e.max.isNegInfinity)
    assert(e.variance === 0.0)
  }

  test("single update captures the value exactly") {
    val s = MomentState.update(MomentState.empty, 42.5)
    assert(s.m === 1L)
    assert(s.mean === 42.5)
    assert(s.m2 === 0.0)
    assert(s.min === 42.5 && s.max === 42.5)
  }

  test("mean matches naive computation") {
    forAll(values) { vs =>
      val s = MomentState.of(vs)
      assert(math.abs(s.mean - naiveMean(vs)) < 1e-8 * (1 + math.abs(naiveMean(vs))))
    }
  }

  test("m2 matches naive sum of squared deviations") {
    forAll(values) { vs =>
      val s = MomentState.of(vs)
      assert(math.abs(s.m2 - naiveM2(vs)) < 1e-6 * (1 + naiveM2(vs)))
    }
  }

  test("min/max match naive computation") {
    forAll(values) { vs =>
      val s = MomentState.of(vs)
      assert(s.min === vs.min)
      assert(s.max === vs.max)
    }
  }

  test("variance is the biased (1/m) estimator from the paper") {
    val vs = Seq(1.0, 2.0, 3.0, 4.0)
    val s  = MomentState.of(vs)
    assert(math.abs(s.variance - 1.25) < 1e-12)
    assert(math.abs(s.stddev - math.sqrt(1.25)) < 1e-12)
  }

  test("sum recovers the total") {
    forAll(values) { vs =>
      val s = MomentState.of(vs)
      assert(math.abs(s.sum - vs.sum) < 1e-6 * (1 + math.abs(vs.sum)))
    }
  }

  test("merge of a split equals the full fold") {
    forAll(values, Gen.chooseNum(0, 100)) { (vs, cut) =>
      val k        = cut % (vs.size + 1)
      val (l, r)   = vs.splitAt(k)
      val merged   = MomentState.merge(MomentState.of(l), MomentState.of(r))
      val straight = MomentState.of(vs)
      assert(merged.m === straight.m)
      assert(math.abs(merged.mean - straight.mean) < 1e-8 * (1 + math.abs(straight.mean)))
      assert(math.abs(merged.m2 - straight.m2) < 1e-5 * (1 + straight.m2))
      assert(merged.min === straight.min)
      assert(merged.max === straight.max)
    }
  }

  test("merge with empty is identity on both sides") {
    forAll(values) { vs =>
      val s = MomentState.of(vs)
      assert(MomentState.merge(s, MomentState.empty) === s)
      assert(MomentState.merge(MomentState.empty, s) === s)
    }
  }

  test("merge is commutative in distribution statistics") {
    forAll(values, values) { (l, r) =>
      val ab = MomentState.merge(MomentState.of(l), MomentState.of(r))
      val ba = MomentState.merge(MomentState.of(r), MomentState.of(l))
      assert(ab.m === ba.m)
      assert(math.abs(ab.mean - ba.mean) < 1e-8 * (1 + math.abs(ab.mean)))
      assert(math.abs(ab.m2 - ba.m2) < 1e-5 * (1 + ab.m2))
    }
  }

  test("remove undoes update (count, mean, m2)") {
    forAll(values) { vs =>
      whenever(vs.size >= 2) {
        val s       = MomentState.of(vs)
        val removed = MomentState.remove(s, vs.last)
        val expect  = MomentState.of(vs.init)
        assert(removed.m === expect.m)
        assert(math.abs(removed.mean - expect.mean) < 1e-6 * (1 + math.abs(expect.mean)))
        assert(math.abs(removed.m2 - expect.m2) < 1e-4 * (1 + expect.m2))
      }
    }
  }

  test("remove of the only element yields the empty state") {
    val s = MomentState.update(MomentState.empty, 3.0)
    assert(MomentState.remove(s, 3.0) === MomentState.empty)
  }

  test("remove from empty state is rejected") {
    assertThrows[IllegalArgumentException](MomentState.remove(MomentState.empty, 1.0))
  }

  test("remove of the max matches a fold without one max occurrence") {
    forAll(values) { vs =>
      whenever(vs.size >= 2) {
        val s       = MomentState.of(vs)
        val removed = MomentState.remove(s, s.max)
        val without = vs.diff(Seq(vs.max))
        val expect  = MomentState.of(without)
        assert(removed.m === expect.m)
        assert(math.abs(removed.mean - expect.mean) < 1e-6 * (1 + math.abs(expect.mean)))
        assert(math.abs(removed.m2 - expect.m2) < 1e-4 * (1 + expect.m2))
      }
    }
  }

  test("Welford is numerically stable for large offsets") {
    val vs = Seq.tabulate(10000)(i => 1e9 + (i % 7).toDouble)
    val s  = MomentState.of(vs)
    val expectVar = naiveM2(vs.map(_ - 1e9)) / vs.size
    assert(math.abs(s.variance - expectVar) < 1e-3)
  }
}
