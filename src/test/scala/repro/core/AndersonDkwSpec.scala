package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.core.StateFolds._
import scala.util.Random

/** Anderson/DKW bounder specifics (paper Algorithm 3). */
class AndersonDkwSpec extends AnyFunSuite {

  test("epsilon follows the one-sided DKW formula") {
    val m = 200L; val d = 0.01
    assert(math.abs(AndersonDkw.epsilon(m, d) - math.sqrt(math.log(1 / d) / (2.0 * m))) < 1e-12)
  }

  test("epsilon saturates at 1 for tiny samples") {
    assert(AndersonDkw.epsilon(1, 1e-15) === 1.0)
    assert(AndersonDkw.epsilon(0, 0.5) === 1.0)
  }

  test("state is the full sample (O(m) memory, paper Table 2)") {
    val s = AndersonDkw.stateOf(Seq(3.0, 1.0, 2.0))
    assert(s === Vector(3.0, 1.0, 2.0))
    assert(AndersonDkw.count(s) === 3L)
  }

  test("merge concatenates samples") {
    assert(AndersonDkw.merge(Vector(1.0), Vector(2.0, 3.0)) === Vector(1.0, 2.0, 3.0))
  }

  test("lbound drops the epsilon-largest mass to the range floor") {
    // m=8, delta=e^-1 → eps = sqrt(1/16) = 0.25; keep k = floor(0.75*8) = 6
    val vs = Vector(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
    val d  = math.exp(-1.0)
    val expect = 0.25 * 0.0 + 0.75 * (1 + 2 + 3 + 4 + 5 + 6) / 6.0
    assert(math.abs(AndersonDkw.lbound(vs, 0.0, 10.0, 1000L, d) - expect) < 1e-12)
  }

  test("rbound is the reflection of lbound through (a+b)") {
    val rng = new Random(4L)
    val vs  = Vector.fill(100)(rng.nextDouble() * 10)
    val a = 0.0; val b = 10.0
    val r = AndersonDkw.rbound(vs, a, b, 1000L, 0.05)
    val l = AndersonDkw.lbound(vs.map(v => (a + b) - v), a, b, 1000L, 0.05)
    assert(math.abs(r - ((a + b) - l)) < 1e-12)
  }

  test("lbound never exceeds the sample mean, rbound never below it") {
    val rng = new Random(5L)
    val vs  = Vector.fill(400)(rng.nextDouble())
    val mu  = vs.sum / vs.size
    assert(AndersonDkw.lbound(vs, 0.0, 1.0, 10000L, 0.05) <= mu)
    assert(AndersonDkw.rbound(vs, 0.0, 1.0, 10000L, 0.05) >= mu)
  }

  test("tiny samples collapse to the range floor/ceiling") {
    val vs = Vector(0.5, 0.6)
    assert(AndersonDkw.lbound(vs, 0.0, 1.0, 100L, 1e-15) === 0.0)
    assert(AndersonDkw.rbound(vs, 0.0, 1.0, 100L, 1e-15) === 1.0)
  }
}
