package repro.flights

import repro.{Oracle, SparkSpec}
import org.apache.spark.sql.functions._

/** Synthetic FLIGHTS generator: schema, distributional properties the
  * evaluation depends on, and DuckDB oracle checks on exact aggregates.
  */
class FlightsDataSpec extends SparkSpec {

  private lazy val df = FlightsData.df(spark, sf = 0.005, seed = 7L).cache()

  test("schema has the five paper attributes plus index columns") {
    assert(df.columns.toSet ===
      Set("origin_idx", "airline_idx", "Origin", "Airline", "DepDelay", "DepTime", "DayOfWeek"))
  }

  test("row count scales with sf") {
    assert(df.count() === (FlightsData.RowsPerSf * 0.005).toLong)
  }

  test("dictionaries are consistent and complete") {
    assert(FlightsData.Airports.size === 60)
    assert(FlightsData.Airports.distinct.size === 60)
    assert(FlightsData.Airlines.size === 12)
    assert(FlightsData.AirportMu.size === 60)
    assert(FlightsData.AirportOutlierScale.size === 60)
    assert(FlightsData.AirlineMu.size === 12)
    assert(FlightsData.AirlineSlope.size === 12)
    assert(FlightsData.DowEffect.size === 7)
    assert(FlightsData.Airports.contains("ORD"))
    assert(FlightsData.Airlines.contains("NW"))
    assert(FlightsData.Airlines.contains("HP"))
  }

  test("attribute domains are respected") {
    val agg = df.agg(
      min("DepDelay"), max("DepDelay"), min("DepTime"), max("DepTime"),
      min("DayOfWeek"), max("DayOfWeek"), min("origin_idx"), max("origin_idx"),
      min("airline_idx"), max("airline_idx")).head
    assert(agg.getDouble(0) >= FlightsData.DelayFloor)
    assert(agg.getInt(2) >= 300 && agg.getInt(3) <= 1439)
    assert(agg.getInt(4) >= 1 && agg.getInt(5) <= 7)
    assert(agg.getInt(6) >= 0 && agg.getInt(7) <= 59)
    assert(agg.getInt(8) >= 0 && agg.getInt(9) <= 11)
  }

  test("string columns agree with index columns") {
    val bad = df.filter(
      element_at(array(FlightsData.Airports.map(lit): _*), col("origin_idx") + 1) =!= col("Origin") ||
      element_at(array(FlightsData.Airlines.map(lit): _*), col("airline_idx") + 1) =!= col("Airline"))
    assert(bad.count() === 0)
  }

  test("airport frequencies are skewed with a sparse tail") {
    val counts = df.groupBy("origin_idx").count().collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap
    val n = df.count().toDouble
    assert(counts(0) / n > 0.08, "head airport (ORD) should be dense")
    val tail = (45 until 60).flatMap(counts.get).map(_ / n)
    assert(tail.nonEmpty && tail.forall(_ < 0.01), "tail airports should be sparse")
  }

  test("every airport and airline occurs at sf>=0.005 (no empty groups)") {
    assert(df.select("origin_idx").distinct().count() === 60)
    assert(df.select("airline_idx").distinct().count() === 12)
  }

  test("some airports have negative average delay (F-q5 is nonempty)") {
    val means = df.groupBy("Origin").agg(avg("DepDelay").as("m")).collect()
      .map(r => r.getString(0) -> r.getDouble(1)).toMap
    assert(means.values.count(_ < 0) >= 4)
    assert(means.values.count(_ > 0) >= 30)
  }

  test("near-max airport cluster exists (F-q8 hardness)") {
    val means = df.groupBy("origin_idx").agg(avg("DepDelay").as("m")).collect()
      .map(r => r.getInt(0) -> r.getDouble(1)).toMap
    val clusterMeans = (6 to 10).map(means)
    val maxMean = means.values.max
    assert(clusterMeans.max === maxMean, "the cluster should hold the max")
    assert(maxMean - clusterMeans.min < 2.0, "cluster means should be close")
  }

  test("airline means are all positive and well spread (F-q2/F-q9)") {
    val means = df.groupBy("airline_idx").agg(avg("DepDelay").as("m")).collect()
      .map(r => r.getInt(0) -> r.getDouble(1)).toMap
    assert(means.values.forall(_ > 1.0))
    val sorted = means.values.toSeq.sorted.reverse
    assert(sorted(0) - sorted(1) > 1.0, "top airline should be clearly separated")
  }

  test("delays grow with departure time (F-q3 slope mechanism)") {
    val early = df.filter(col("DepTime") < 720).agg(avg("DepDelay")).head.getDouble(0)
    val late  = df.filter(col("DepTime") > 1200).agg(avg("DepDelay")).head.getDouble(0)
    assert(late > early + 1.0)
  }

  test("outliers are rare but set a wide catalog range") {
    val q = df.agg(
      max("DepDelay").as("mx"),
      expr("percentile_approx(DepDelay, 0.999)").as("p999")).head
    assert(q.getDouble(0) > 40.0, "outliers should stretch the max")
    assert(q.getDouble(1) < q.getDouble(0) * 0.7, "99.9th percentile well below max")
  }

  test("oracle: per-airline exact AVG matches DuckDB") {
    val sparkAgg = df.groupBy("Airline")
      .agg(round(avg("DepDelay"), 4).as("avg_delay"), count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(
      sparkAgg,
      """SELECT Airline,
        |       ROUND(AVG(CAST(DepDelay AS DOUBLE)), 4) AS avg_delay,
        |       COUNT(*) AS cnt
        |FROM flights GROUP BY Airline""".stripMargin,
      "flights" -> df.select("Airline", "DepDelay"))
  }

  test("oracle: negative-average airports match DuckDB (F-q5 semantics)") {
    val sparkAgg = df.groupBy("Origin").agg(avg("DepDelay").as("a"))
      .filter(col("a") < 0).select("Origin")
    Oracle.assertEquivalent(
      sparkAgg,
      "SELECT Origin FROM flights GROUP BY Origin HAVING AVG(CAST(DepDelay AS DOUBLE)) < 0",
      "flights" -> df.select("Origin", "DepDelay"))
  }

  test("ColumnStore round-trip preserves rows and dictionaries") {
    val store = FlightsData.toStore(df)
    assert(store.numRows === df.count())
    assert(store.cat("Origin").dict.toVector === FlightsData.Airports)
    assert(store.cat("Airline").dict.toVector === FlightsData.Airlines)
    assert(store.cat("DayOfWeek").dict.toVector === Vector.tabulate(7)(d => (d + 1).toString))
    val sparkSum = df.agg(sum("DepDelay")).head.getDouble(0)
    assert(math.abs(store.num("DepDelay").values.sum - sparkSum) < 1e-4 * math.abs(sparkSum) + 1e-6)
  }

  test("scramble helper builds a consistent scramble") {
    val scr = FlightsScramble(spark, sf = 0.002)
    assert(scr.numRows === (FlightsData.RowsPerSf * 0.002).toLong)
    assert(scr.blockSize === 25)
    val (a, b) = scr.range("DepDelay")
    assert(a >= FlightsData.DelayFloor && b > a)
  }
}
