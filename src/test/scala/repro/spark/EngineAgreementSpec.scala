package repro.spark

import repro.SparkSpec
import repro.core.Bounders
import repro.fastframe._
import repro.flights.{FlightsData, FlightsQueries, TableHarness}

/** Differential test: FastFrame, the Spark optional-stopping path and
  * Exact give the same answer set on the FLIGHTS queries both engines run,
  * over the same relation.
  */
class EngineAgreementSpec extends SparkSpec {

  private lazy val flights  = FlightsData.df(spark, sf = 0.005).cache()
  private lazy val scr      = Scramble.fromStore(FlightsData.toStore(flights))
  private lazy val scrSpark = SparkScramble.scramble(flights, seed = 21L).cache()

  private def covers(lo: Double, hi: Double, x: Double): Boolean = {
    val tol = 1e-9 * (1 + math.abs(x))
    lo <= x + tol && x - tol <= hi
  }

  for (q <- Seq(FlightsQueries.q2(), FlightsQueries.q5, FlightsQueries.q8, FlightsQueries.q9)) {
    test(s"${q.name}: Engine.run, OptStopSpark.run and Engine.runExact agree") {
      val (a, b) = scr.range(q.aggCol)
      val exact  = Engine.runExact(scr, q)
      val ff     = Engine.run(scr, q, EngineConfig(bounder = Bounders.BernsteinRT, roundRows = 10000))
      val sp     = OptStopSpark.run(scrSpark, q.aggCol, q.groupBy, Bounders.BernsteinRT, a, b,
        delta = 1e-15, stop = q.stop,
        numViewsUpper = q.groupBy.map(c => scr.store.cat(c).cardinality).product,
        initialPrefix = 5000)
      val spRun = QueryRun(q, sp.groups.zipWithIndex.map { case (g, i) =>
        GroupResult(g.key, GroupBounds(i, g.m, g.mean, g.iv, g.exact))
      }, Metrics(0, sp.totalRowsRead, sp.rounds, 0, 0))

      // At δ = 1e-15 no running intersection may cross.
      assert(ff.metrics.crossedViews === 0)
      assert(sp.crossedViews === 0)
      assert(TableHarness.isCorrect(q, ff, exact), "FastFrame answer differs from Exact")
      assert(TableHarness.isCorrect(q, spRun, exact), "Spark answer differs from Exact")
      val exactMean = exact.results.map(r => r.key -> r.bounds.mean).toMap
      assert(sp.groups.map(_.key).toSet === exactMean.keySet)
      sp.groups.foreach { g =>
        assert(covers(g.iv.lo, g.iv.hi, exactMean(g.key)), s"${g.key}: ${g.iv} vs ${exactMean(g.key)}")
      }
    }
  }
}
