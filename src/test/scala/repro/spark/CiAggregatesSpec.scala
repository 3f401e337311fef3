package repro.spark

import repro.{Oracle, SparkSpec, SynthData}
import repro.core.{Bounders, MomentState}
import repro.core.StateFolds._
import org.apache.spark.sql.functions._

/** Distributed CI aggregation: the Spark aggregation must reproduce the
  * driver-side bounder state exactly (up to float merge order) and the
  * SQL-registered functions must work end to end.
  */
class CiAggregatesSpec extends SparkSpec {

  private lazy val li = SynthData.lineitem(spark, sf = 0.002).cache()

  private def stateFromRow(st: org.apache.spark.sql.Row): MomentState =
    MomentState(st.getLong(0), st.getDouble(1), st.getDouble(2), st.getDouble(3), st.getDouble(4))

  test("ci_moments over groups equals a driver-side fold") {
    val grouped = li.groupBy("l_returnflag")
      .agg(CiAggregates.momentUdaf(col("l_quantity")).as("state"))
      .collect()
      .map(r => r.getString(0) -> stateFromRow(r.getStruct(1)))
      .toMap
    val reference = li.select("l_returnflag", "l_quantity").collect()
      .groupBy(_.getString(0))
      .map { case (k, rows) => k -> MomentState.of(rows.map(_.getDouble(1)).toSeq) }
    assert(grouped.keySet === reference.keySet)
    for ((k, st) <- grouped) {
      val ref = reference(k)
      assert(st.m === ref.m)
      assert(math.abs(st.mean - ref.mean) < 1e-9 * (1 + math.abs(ref.mean)))
      assert(math.abs(st.m2 - ref.m2) < 1e-6 * (1 + ref.m2))
      assert(st.min === ref.min)
      assert(st.max === ref.max)
    }
  }

  test("group means from ci_moments agree with the DuckDB oracle") {
    val sparkAgg = li.groupBy("l_returnflag")
      .agg(CiAggregates.momentUdaf(col("l_quantity")).as("state"))
      .select(col("l_returnflag"),
        round(col("state.mean"), 6).as("mean_q"), col("state.m").as("cnt"))
    Oracle.assertEquivalent(
      sparkAgg,
      """SELECT l_returnflag,
        |       ROUND(AVG(CAST(l_quantity AS DOUBLE)), 6) AS mean_q,
        |       COUNT(*) AS cnt
        |FROM lineitem GROUP BY l_returnflag""".stripMargin,
      "lineitem" -> li.select("l_returnflag", "l_quantity"))
  }

  test("registered SQL functions compute covering intervals per group") {
    val n = li.count()
    CiAggregates.register(spark, a = 1.0, b = 51.0, n = n, delta = 1e-10)
    li.createOrReplaceTempView("lineitem_ci")
    val rows = spark.sql(
      """SELECT l_returnflag,
        |       ci_avg_bernstein_rt(l_quantity) AS ci,
        |       AVG(l_quantity) AS exact_avg
        |FROM lineitem_ci GROUP BY l_returnflag""".stripMargin).collect()
    assert(rows.nonEmpty)
    rows.foreach { r =>
      val ci = r.getStruct(1)
      val (mean, lo, hi, m) = (ci.getDouble(0), ci.getDouble(1), ci.getDouble(2), ci.getLong(3))
      val exact = r.getDouble(2)
      assert(lo <= exact && exact <= hi, s"${r.getString(0)}: [$lo,$hi] misses $exact")
      assert(math.abs(mean - exact) < 1e-9 * (1 + math.abs(exact)))
      assert(m > 0)
    }
  }

  test("all four ci_avg_* functions are registered and ordered by tightness") {
    // Treat the relation as a sample from a 50x larger population: a
    // full-population "sample" would let Serfling's vanishing rho make
    // Hoeffding degenerate-tight, which is not the regime of interest.
    val n = li.count() * 50
    CiAggregates.register(spark, a = 1.0, b = 51.0, n = n, delta = 1e-10)
    li.createOrReplaceTempView("lineitem_ci")
    val row = spark.sql(
      """SELECT ci_avg_hoeffding(l_quantity)    AS h,
        |       ci_avg_hoeffding_rt(l_quantity) AS hrt,
        |       ci_avg_bernstein(l_quantity)    AS b,
        |       ci_avg_bernstein_rt(l_quantity) AS brt
        |FROM lineitem_ci""".stripMargin).head
    def width(i: Int) = row.getStruct(i).getDouble(2) - row.getStruct(i).getDouble(1)
    // On full uniform data Bernstein beats Hoeffding; RT never much worse.
    assert(width(2) < width(0))
    assert(width(3) < width(0))
  }

  test("CiAvgAggregator on a sampled fraction still covers the true mean") {
    val n      = li.count()
    val sample = SparkScramble.prefix(SparkScramble.scramble(li.select("l_quantity"), 3L), n / 10)
    val ciCol = udaf(
      new CiAvgAggregator(Bounders.BernsteinRT, 1.0, 51.0, n, 1e-10),
      org.apache.spark.sql.Encoders.scalaDouble)
    val r      = sample.agg(ciCol(col("l_quantity"))).head.getStruct(0)
    val exact  = li.agg(avg("l_quantity")).head.getDouble(0)
    assert(r.getDouble(1) <= exact && exact <= r.getDouble(2))
  }

  test("ci_avg_* rejects values outside the caller's [a, b]") {
    // l_quantity runs up to 50: b = 40 would void the SSI bound.
    CiAggregates.register(spark, a = 1.0, b = 40.0, n = li.count(), delta = 1e-10)
    li.createOrReplaceTempView("lineitem_ci")
    val e = intercept[Exception] {
      spark.sql("SELECT ci_avg_bernstein_rt(l_quantity) FROM lineitem_ci").collect()
    }
    assert(e.getMessage.contains("outside [a, b] = [1.0, 40.0]"), e.getMessage)
  }

  test("moment udaf of an empty relation yields the empty state") {
    val empty = li.filter(col("l_quantity") < -1)
    val st = empty.agg(CiAggregates.momentUdaf(col("l_quantity")).as("s")).head.getStruct(0)
    assert(st.getLong(0) === 0L)
  }
}
