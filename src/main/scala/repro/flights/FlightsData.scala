package repro.flights

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.fastframe.{CatColumn, ColumnStore, NumColumn}

/** Synthetic stand-in for the FLIGHTS dataset (paper Table 3; see
  * DESIGN.md §2 for the substitution rationale). Five attributes, as in
  * the paper: Origin, Airline, DepDelay, DepTime, DayOfWeek.
  *
  * The delay model is engineered to reproduce the distributional features
  * the paper's evaluation exercises:
  *
  *   DepDelay = μ_airport + μ_airline + dowEffect
  *            + slope_airline · max(0, DepTime − 720)/240
  *            + N(0, σ²) + outlier,   clamped at −35,
  *
  * where outliers occur with probability `OutlierProb` and have magnitude
  * `U(25, 60) · outlierScale(airport)` — so the *global* catalog range
  * [a, b] is set by a handful of heavy-outlier airports, while most views
  * (and especially sparse ones) observe a far smaller (MIN, MAX): exactly
  * the PHOS regime RangeTrim exploits. Airport frequencies are zipf-like
  * with a uniform sparse tail (indices 45–59), whose mean delays sit near
  * 0 (hard for F-q5) or clearly negative. Airports 6–11 form a cluster of
  * near-maximal means (hard for F-q8). Airline means are well spread with
  * a clear winner (easy F-q9) and all far above 0 (easy F-q2[thresh=0]);
  * per-airline DepTime slopes widen the spread for late departures
  * (the F-q3 trend).
  */
object FlightsData {

  /** Rows at scale factor 1.0 (the paper's table has 606 M; we scale). */
  val RowsPerSf: Long = 6000000L

  val Airports: Vector[String] = Vector(
    "ORD", "ATL", "DFW", "DEN", "LAX", "SFO", "PHX", "IAH", "LAS", "MSP",
    "DTW", "BOS", "SLC", "EWR", "CLT", "LGA", "JFK", "BWI", "MDW", "DCA",
    "SAN", "TPA", "PDX", "STL", "MCO", "SEA", "PHL", "MIA", "OAK", "SMF",
    "MCI", "SNA", "DAL", "RDU", "AUS", "IND", "SAT", "CLE", "PIT", "MKE",
    "CMH", "BNA", "ABQ", "BUR", "ONT", "SJC", "HOU", "MSY", "JAX", "OMA",
    "TUS", "ELP", "BOI", "GEG", "LIT", "RNO", "SDF", "ANC", "HNL", "PVD")

  /** Per-airport base mean-delay contribution, by frequency rank.
    * 0 = ORD (dense hub, mean ≈ 6 total, clearly below F-q4's threshold
    * 10); 6–10 = near-max cluster with small internal gaps but a clear
    * margin over everything else (F-q8 is hard exactly within the
    * cluster, F-q6's top-5 are the cluster × the heavy-delay day);
    * 45–51 = sparse near-zero (F-q5's bottleneck groups); 52–59 = sparse
    * clearly-negative (F-q5's answer set).
    */
  val AirportMu: Vector[Double] = {
    val head     = Vector(1.0, 4.0, 6.5, 5.0, 7.0, 4.5)
    val cluster  = Vector(11.6, 11.2, 10.9, 10.7, 10.5, 5.0)
    val mid      = Vector.tabulate(33)(i => 1.0 + ((i * 7) % 33).toDouble / 33.0 * 3.9)
    val nearZero = Vector(-4.0, -2.2, -3.7, -1.9, -4.3, -2.05, -3.4)
    val negative = Vector(-10.5, -9.0, -10.0, -8.2, -9.5, -11.0, -8.6, -9.8)
    head ++ cluster ++ mid ++ nearZero ++ negative
  }

  /** Outlier magnitude multiplier per airport: a few dense-ish airports
    * carry 2× outliers and thereby set the global catalog range.
    */
  val AirportOutlierScale: Vector[Double] =
    Vector.tabulate(60)(i => if (Set(1, 3, 13, 17, 23, 29).contains(i)) 2.0 else 1.0)

  val Airlines: Vector[String] =
    Vector("WN", "AA", "DL", "UA", "US", "NW", "CO", "AS", "TW", "HP", "B6", "F9")

  /** Per-airline base mean-delay contribution. All group means sit well
    * above 0 (easy F-q2[thresh=0]); WN is the clear winner (easy F-q9);
    * NW lands near 6.5 overall (the first Figure 7(b) spike location);
    * HP and F9 have the lowest *late-departure* delays (F-q3's bottom-2),
    * with the next airlines a few units above them.
    */
  val AirlineMu: Vector[Double] =
    Vector(7.5, 5.5, 4.2, 3.0, 2.2, 0.8, 0.2, -0.3, 0.0, -1.5, -2.0, -0.2)

  /** Per-airline DepTime slope: delay added per 240 min past noon-12:00.
    * Late-departure airline means are μ_al + ~2.9·slope, giving the F-q3
    * separation structure and the widening spread of Figure 8.
    */
  val AirlineSlope: Vector[Double] =
    Vector(2.2, 1.4, 1.0, 0.8, 1.6, 2.1, 1.9, 2.1, 2.0, 0.5, 1.8, 0.1)

  /** Additive day-of-week effect, indices 0..6 for days 1..7. Day 6 is
    * strongly delayed, making (day 6 × cluster airports) F-q6's top-5;
    * the other days are spread enough that F-q7's ordering is attainable.
    */
  val DowEffect: Vector[Double] = Vector(0.0, -0.9, -1.8, -2.7, -3.6, 5.5, -4.5)

  val NoiseSigma: Double  = 2.5
  val OutlierProb: Double = 5e-4
  val DelayFloor: Double  = -35.0

  private def arrayLit(vs: Vector[Double]) = array(vs.map(lit): _*)

  /** Generate the flights DataFrame at scale factor `sf` (rows =
    * 6 000 000 · sf). Columns: origin_idx, airline_idx, Origin, Airline,
    * DepDelay, DepTime (minutes after midnight, 300–1439), DayOfWeek.
    * Deterministic in (sf, seed) for a fixed session parallelism.
    */
  def df(spark: SparkSession, sf: Double = 0.1, seed: Long = 7L): DataFrame = {
    val n = math.max(1L, (RowsPerSf * sf).toLong)
    val base = spark.range(n)
      // zipf-like head (45 airports) + uniform sparse tail (15 airports)
      .withColumn("origin_idx",
        when(rand(seed) < 0.95,
          least(lit(44), floor(pow(rand(seed + 1), 2.2) * 45))
        ).otherwise(lit(45) + floor(rand(seed + 2) * 15)).cast(IntegerType))
      .withColumn("airline_idx",
        least(lit(11), floor(pow(rand(seed + 3), 1.6) * 12)).cast(IntegerType))
      .withColumn("DayOfWeek", (rand(seed + 4) * 7 + 1).cast(IntegerType))
      .withColumn("DepTime", (lit(300) + rand(seed + 5) * 1140).cast(IntegerType))

    val withDelay = base
      .withColumn("mu_ap", element_at(arrayLit(AirportMu), col("origin_idx") + 1))
      .withColumn("mu_al", element_at(arrayLit(AirlineMu), col("airline_idx") + 1))
      .withColumn("slope", element_at(arrayLit(AirlineSlope), col("airline_idx") + 1))
      .withColumn("oscale", element_at(arrayLit(AirportOutlierScale), col("origin_idx") + 1))
      .withColumn("dow_eff", element_at(arrayLit(DowEffect), col("DayOfWeek")))
      // Outliers are confined to early departures (DepTime < 900): late-
      // filtered views (F-q3, most of F-q6) are then outlier-free, so
      // their observed (MIN, MAX) is far tighter than the catalog [a, b]
      // — the filtered-range regime of the paper's Figure 2.
      .withColumn("outlier",
        when(rand(seed + 6) < OutlierProb && col("DepTime") < 900,
          (lit(15.0) + rand(seed + 7) * 25.0) * col("oscale")).otherwise(lit(0.0)))
      .withColumn("DepDelay",
        round(greatest(lit(DelayFloor),
          col("mu_ap") + col("mu_al") + col("dow_eff") +
            col("slope") * greatest(lit(0.0), (col("DepTime") - 720).cast(DoubleType)) / 240.0 +
            randn(seed + 8) * NoiseSigma + col("outlier")), 2))

    withDelay.select(
      col("origin_idx"),
      col("airline_idx"),
      element_at(array(Airports.map(lit): _*), col("origin_idx") + 1) as "Origin",
      element_at(array(Airlines.map(lit): _*), col("airline_idx") + 1) as "Airline",
      col("DepDelay"),
      col("DepTime"),
      col("DayOfWeek"))
  }

  /** Collect a flights DataFrame into a FastFrame [[ColumnStore]].
    * DayOfWeek is stored categorically (it is a GROUP BY column in F-q6 /
    * F-q7); DepTime and DepDelay are numeric.
    */
  def toStore(flights: DataFrame): ColumnStore = {
    val rows = flights
      .select("origin_idx", "airline_idx", "DepDelay", "DepTime", "DayOfWeek")
      .collect()
    val n          = rows.length
    val originAr   = new Array[Int](n)
    val airlineAr  = new Array[Int](n)
    val delayAr    = new Array[Double](n)
    val deptimeAr  = new Array[Double](n)
    val dowAr      = new Array[Int](n)
    var i = 0
    while (i < n) {
      val r = rows(i)
      originAr(i) = r.getInt(0)
      airlineAr(i) = r.getInt(1)
      delayAr(i) = r.getDouble(2)
      deptimeAr(i) = r.getInt(3).toDouble
      dowAr(i) = r.getInt(4) - 1
      i += 1
    }
    new ColumnStore(
      cats = Map(
        "Origin"    -> CatColumn("Origin", originAr, Airports.toArray),
        "Airline"   -> CatColumn("Airline", airlineAr, Airlines.toArray),
        "DayOfWeek" -> CatColumn("DayOfWeek", dowAr, Array.tabulate(7)(d => (d + 1).toString))),
      nums = Map(
        "DepDelay" -> NumColumn("DepDelay", delayAr),
        "DepTime"  -> NumColumn("DepTime", deptimeAr)))
  }
}
