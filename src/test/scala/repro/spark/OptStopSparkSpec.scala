package repro.spark

import repro.SparkSpec
import repro.core.Bounders
import repro.fastframe.StopCondition
import repro.flights.FlightsData
import org.apache.spark.sql.functions._

/** Distributed optional stopping (Algorithm 5 as Spark rounds). */
class OptStopSparkSpec extends SparkSpec {

  private lazy val flights = FlightsData.df(spark, sf = 0.005).cache()
  private lazy val scr     = SparkScramble.scramble(flights, seed = 21L).cache()
  private lazy val range   = {
    val r = flights.agg(min("DepDelay"), max("DepDelay")).head
    (r.getDouble(0), r.getDouble(1))
  }

  test("HAVING-style run matches the exact partition (F-q2 semantics)") {
    val (a, b) = range
    val res = OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.BernsteinRT, a, b,
      delta = 1e-15, stop = StopCondition.ThresholdSide(0.0), numViewsUpper = 12)
    val exact = flights.groupBy("Airline").agg(avg("DepDelay").as("m")).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(res.groups.size === 12)
    res.groups.foreach { g =>
      val mu = exact(g.key.head)
      assert(g.iv.contains(mu) || g.exact, s"${g.key}: ${g.iv} vs $mu")
      // The side of the threshold must be decided correctly.
      if (g.iv.lo > 0) assert(mu > 0)
      if (g.iv.hi < 0) assert(mu < 0)
    }
    assert(res.finalPrefix <= flights.count())
    assert(res.rounds >= 1)
    assert(res.totalRowsRead >= res.finalPrefix)
  }

  test("relaxed delta and an easy threshold terminate before reading everything") {
    // Every airline mean is far above -5; a moderate delta lets the run
    // stop on a prefix (at 30k rows the paper's 1e-15 needs ~all of it).
    val (a, b) = range
    val res = OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.BernsteinRT, a, b,
      delta = 0.01, stop = StopCondition.ThresholdSide(-5.0), numViewsUpper = 12,
      initialPrefix = 5000)
    assert(res.finalPrefix < flights.count())
    assert(res.groups.forall(g => g.iv.lo > -5.0 || g.exact))
  }

  test("ungrouped run converges on the global mean") {
    val (a, b) = range
    val res = OptStopSpark.run(
      scr, "DepDelay", Nil, Bounders.BernsteinRT, a, b,
      delta = 1e-6, stop = StopCondition.AbsoluteWidth(2.0), numViewsUpper = 1,
      initialPrefix = 5000)
    val mu = flights.agg(avg("DepDelay")).head.getDouble(0)
    assert(res.groups.size === 1)
    val g = res.groups.head
    assert(g.iv.contains(mu) || g.exact)
    assert(g.iv.width < 2.0 || g.exact)
  }

  test("exhausting the scramble yields exact groups") {
    val (a, b) = range
    val res = OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.Hoeffding, a, b,
      delta = 1e-15, stop = StopCondition.AbsoluteWidth(1e-9), numViewsUpper = 12,
      initialPrefix = flights.count())
    assert(res.groups.forall(_.exact))
    assert(res.rounds === 1)
    val exact = flights.groupBy("Airline").agg(avg("DepDelay").as("m")).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    res.groups.foreach(g => assert(math.abs(g.mean - exact(g.key.head)) < 1e-9))
  }

  test("rounds grow the prefix geometrically") {
    // An unsatisfiable width runs to the full pass: each round doubles the
    // prefix until it reaches the scramble size.
    val (a, b) = range
    val n = flights.count()
    val res = OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.Hoeffding, a, b,
      delta = 1e-15, stop = StopCondition.AbsoluteWidth(1e-9), numViewsUpper = 12,
      initialPrefix = 1000)
    val prefixes = Iterator.iterate(1000L)(_ * 2).takeWhile(_ < n).toSeq :+ n
    assert(res.rounds === prefixes.size)
    assert(res.finalPrefix === n)
    assert(res.totalRowsRead === prefixes.sum)
    assert(res.groups.forall(_.exact))
  }

  test("a view the early prefixes miss still keeps the run going") {
    // 99 999 rows of group A (values 0-2), then one group-Z row of value
    // 100 at the last scramble position. Z is the only group above 50.
    val n = 100000L
    val late = spark.range(n).select(
      when(col("id") === n - 1, lit("Z")).otherwise(lit("A")).as("g"),
      when(col("id") === n - 1, lit(100.0)).otherwise((col("id") % 3).cast("double")).as("v"),
      col("id").as(SparkScramble.PosCol))
    val res = OptStopSpark.run(
      late, "v", Seq("g"), Bounders.BernsteinRT, a = 0.0, b = 100.0,
      delta = 1e-15, stop = StopCondition.ThresholdSide(50.0), numViewsUpper = 2)
    val byKey = res.groups.map(g => g.key.head -> g).toMap
    assert(byKey.keySet === Set("A", "Z"))
    assert(byKey("Z").exact && byKey("Z").mean === 100.0)
    assert(byKey("A").iv.hi < 50.0 || byKey("A").exact)
    assert(res.finalPrefix === n)
  }

  test("a view is sampled only while it is active") {
    // "far" (values 0-2) leaves ThresholdSide(50) after the first rounds;
    // "near" (49 or 51, mean 50) stays active until the full read.
    val n = 20000L
    val even = col("id") % 2 === 0
    val data = spark.range(n).select(
      when(even, lit("far")).otherwise(lit("near")).as("g"),
      when(even, (col("id") % 3).cast("double"))
        .otherwise(when(col("id") % 4 === 1, lit(49.0)).otherwise(lit(51.0))).as("v"),
      col("id").as(SparkScramble.PosCol))
    val res = OptStopSpark.run(
      data, "v", Seq("g"), Bounders.BernsteinRT, a = 0.0, b = 100.0,
      delta = 1e-6, stop = StopCondition.ThresholdSide(50.0), numViewsUpper = 2, initialPrefix = 500)
    assert(res.finalPrefix === n)
    val far = res.groups.find(_.key == Seq("far")).get
    val inFinalPrefix = data.filter(even && col(SparkScramble.PosCol) < res.finalPrefix).count()
    assert(far.m < inFinalPrefix, s"far's m = ${far.m}")
    val exactMean = data.filter(even).agg(avg("v")).head.getDouble(0)
    assert(far.iv.contains(far.mean) && far.iv.contains(exactMean), s"${far.iv} vs ${far.mean}, $exactMean")
    assert(far.iv.hi < 50.0 && !far.exact)
  }

  test("a value above the caller's b fails loudly, naming the group") {
    val (a, b) = range
    val e = intercept[IllegalArgumentException](OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.BernsteinRT, a, b - 1.0,
      delta = 1e-15, stop = StopCondition.ThresholdSide(0.0), numViewsUpper = 12,
      initialPrefix = flights.count()))
    assert(e.getMessage.contains("outside [a, b]"), e.getMessage)
  }

  test("more groups than numViewsUpper fail loudly") {
    val (a, b) = range
    assertThrows[IllegalArgumentException](OptStopSpark.run(
      scr, "DepDelay", Seq("Airline"), Bounders.BernsteinRT, a, b,
      delta = 1e-15, stop = StopCondition.ThresholdSide(0.0), numViewsUpper = 1))
  }
}
