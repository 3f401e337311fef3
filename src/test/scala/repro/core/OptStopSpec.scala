package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Optional stopping (paper Algorithm 5 / Theorem 4). */
class OptStopSpec extends AnyFunSuite {

  test("round budgets follow delta_k = (6/pi^2) * delta / k^2") {
    val d = 0.01
    assert(math.abs(OptStop.deltaAtRound(d, 1) - 6.0 / (math.Pi * math.Pi) * d) < 1e-15)
    assert(math.abs(OptStop.deltaAtRound(d, 3) - 6.0 / (math.Pi * math.Pi) * d / 9) < 1e-15)
  }

  test("round budgets sum to at most delta (Theorem 4)") {
    val d   = 0.05
    val sum = (1 to 100000).map(OptStop.deltaAtRound(d, _)).sum
    assert(sum <= d + 1e-12)
    assert(sum > 0.99 * d) // and nearly exhaust it
  }

  test("round index must be positive") {
    assertThrows[IllegalArgumentException](OptStop.deltaAtRound(0.1, 0))
  }

  test("running interval is the intersection of observations") {
    val r = new SequentialOptStop.RunningInterval
    assert(r.isEmptyOfObservations)
    r.observe(Interval(0.0, 10.0))
    r.observe(Interval(2.0, 12.0))
    r.observe(Interval(1.0, 9.0))
    assert(r.current === Interval(2.0, 9.0))
    assert(!r.isEmptyOfObservations)
  }

  test("running interval collapses crossed bounds to the midpoint") {
    val r = new SequentialOptStop.RunningInterval
    r.observe(Interval(5.0, 6.0))
    r.observe(Interval(8.0, 9.0)) // disjoint: a delta-failure artifact
    assert(r.current.width === 0.0)
  }

  test("run() terminates once the stop predicate fires and covers the mean") {
    val rng  = new Random(1L)
    val data = Array.fill(50000)(0.4 + 0.2 * rng.nextDouble())
    val mu   = data.sum / data.length
    val it   = rng.shuffle(data.toVector).iterator
    val (iv, rounds, taken) = SequentialOptStop.run(
      Bounders.BernsteinRT, it, 0.0, 1.0, data.length.toLong, 0.01,
      batchSize = 500, shouldStop = _.width < 0.05)
    assert(iv.contains(mu))
    assert(iv.width < 0.05)
    assert(rounds >= 1)
    assert(taken >= 500 && taken <= data.length)
  }

  test("run() with an unsatisfiable stop exhausts the sampler") {
    val data = Vector.fill(2000)(0.5)
    val (_, _, taken) = SequentialOptStop.run(
      Bounders.Hoeffding, data.iterator, 0.0, 1.0, 2000L, 0.01,
      batchSize = 100, shouldStop = _ => false)
    assert(taken === 2000L)
  }

  test("run() respects maxRounds") {
    val data = Iterator.continually(0.5)
    val (_, rounds, taken) = SequentialOptStop.run(
      Bounders.Hoeffding, data, 0.0, 1.0, 100000L, 0.01,
      batchSize = 10, shouldStop = _ => false, maxRounds = 7)
    assert(rounds === 7)
    assert(taken === 70L)
  }

  test("sequential coverage: repeated rounds never exceed the total budget") {
    // Monte-Carlo: run OptStop to a tight width many times; failures
    // (true mean escaping the running interval at any round) must be
    // rare under the delta_k schedule.
    val rng  = new Random(2L)
    val data = Array.fill(3000)(rng.nextDouble())
    val mu   = data.sum / data.length
    var fails = 0
    for (t <- 1 to 100) {
      val it = new Random(t.toLong).shuffle(data.toVector).iterator
      val (iv, _, _) = SequentialOptStop.run(
        Bounders.Bernstein, it, 0.0, 1.0, 3000L, 0.1,
        batchSize = 200, shouldStop = _.width < 0.08)
      if (!iv.contains(mu)) fails += 1
    }
    assert(fails <= 10)
  }
}
