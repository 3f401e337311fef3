package repro.perfbench

import scala.collection.mutable

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobEnd, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}

import repro.core.{Bounders, Interval}
import repro.fastframe.{FrameQuery, GroupBounds, GroupResult, Metrics, QueryRun}
import repro.flights.{FlightsData, FlightsQueries, TableHarness}
import repro.spark.{OptStopSpark, OptStopSparkResult, SparkScramble}

/** The Spark layer, measured in every traced run: `OptStopSpark.run` over
  * the unfiltered queries F-q2, F-q5, F-q8 and F-q9, with Bernstein+RT,
  * δ = 1e-15, an initial prefix of B = 40 000 rows and `numViewsUpper` set
  * to the group domain size, over a `SparkScramble` of FLIGHTS at SF 0.05.
  */
object SparkBench {

  /** 300 000 rows: prefixes of 40 k, 80 k and 160 k rows before a full pass. */
  val Sf: Double = 0.05

  val Delta: Double = 1e-15

  val InitialPrefix: Long = 40000L

  val Queries: IndexedSeq[FrameQuery] =
    IndexedSeq(FlightsQueries.q2(), FlightsQueries.q5, FlightsQueries.q8, FlightsQueries.q9)

  private val domain = Map("Airline" -> FlightsData.Airlines.size, "Origin" -> FlightsData.Airports.size)

  def shuffleSeed(seed: Long): Long = seed * 1000003L + 33L

  /** A cached flights relation, its cached scramble, the catalog range
    * [a, b] of DepDelay, the row count and the scramble's build time.
    */
  final class Prepared(val flights: DataFrame, val scrambled: DataFrame, val a: Double, val b: Double,
                       val rows: Long, val scrambleS: Double) {
    def unpersist(): Unit = { scrambled.unpersist(); flights.unpersist() }
  }

  /** cache → SparkScramble.scramble → materialise → catalog range. */
  def prepare(spark: SparkSession, seed: Long, tracer: Tracer): Prepared = {
    val flights = FlightsData.df(spark, Sf, seed).cache()
    val rows    = tracer.span("spark.cache")(flights.count())
    val (scr, scrambleS) = Clock.seconds(tracer.span("spark.scramble") {
      val s = SparkScramble.scramble(flights, shuffleSeed(seed)).cache()
      s.count()
      s
    })
    val r = tracer.span("spark.range")(flights.agg(F.min("DepDelay"), F.max("DepDelay")).head())
    new Prepared(flights, scr, r.getDouble(0), r.getDouble(1), rows, scrambleS)
  }

  /** Exact answer of `q` from a plain Spark group-by, as a QueryRun. */
  def exactAnswer(p: Prepared, q: FrameQuery): QueryRun = {
    val rows = p.flights.groupBy(q.groupBy.map(F.col): _*)
      .agg(F.avg(q.aggCol), F.count(F.lit(1))).collect()
    val results = rows.toIndexedSeq.zipWithIndex.map { case (r, i) =>
      val mean = r.getDouble(q.groupBy.size)
      GroupResult(q.groupBy.indices.map(j => r.get(j).toString),
        GroupBounds(i, r.getLong(q.groupBy.size + 1), mean, Interval(mean, mean), exact = true))
    }
    QueryRun(q, results, Metrics(0, p.rows, 0, 0, 0))
  }

  def runQuery(p: Prepared, q: FrameQuery): OptStopSparkResult =
    OptStopSpark.run(p.scrambled, q.aggCol, q.groupBy, Bounders.BernsteinRT, p.a, p.b, Delta, q.stop,
      numViewsUpper = q.groupBy.map(domain).product, initialPrefix = InitialPrefix)

  /** The answer set must match Exact (the query's stop condition decides
    * what "match" means, as for FastFrame) and every CI must cover the
    * exact group mean.
    */
  def check(q: FrameQuery, res: OptStopSparkResult, exact: QueryRun): Boolean = {
    val asRun = QueryRun(q, res.groups.zipWithIndex.map { case (g, i) =>
      GroupResult(g.key, GroupBounds(i, g.m, g.mean, g.iv, g.exact))
    }, Metrics(0, res.totalRowsRead, res.rounds, 0, 0))
    val exactMean = exact.results.map(r => r.key -> r.bounds.mean).toMap
    val covered = res.groups.forall(g => g.exact || exactMean.get(g.key).exists(g.iv.contains))
    covered && TableHarness.isCorrect(q, asRun, exact)
  }

  /** Collects job start/end times per job group. Events arrive on Spark's
    * listener bus asynchronously; [[drain]] waits for them.
    */
  final class JobListener extends SparkListener {
    private val groupOf = mutable.Map.empty[Int, String]
    private val startMs = mutable.Map.empty[Int, Long]
    private val endMs   = mutable.Map.empty[Int, Long]

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse("")
      groupOf(e.jobId) = g
      startMs(e.jobId) = e.time
    }

    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized { endMs(e.jobId) = e.time }

    /** (jobs, job milliseconds) of one job group. */
    def jobs(group: String): (Int, Long) = synchronized {
      val ids = groupOf.collect { case (id, g) if g == group => id }
      (ids.size, ids.iterator.map(id => endMs.getOrElse(id, startMs(id)) - startMs(id)).sum)
    }

    private def sawEndOf(group: String): Boolean = synchronized {
      groupOf.exists { case (id, g) => g == group && endMs.contains(id) }
    }

    /** Run a marker job and wait until its end event is delivered: the bus
      * is FIFO, so every earlier event has been delivered by then.
      */
    def drain(spark: SparkSession): Unit = {
      val marker = s"drain-${System.nanoTime()}"
      spark.sparkContext.setJobGroup(marker, "listener drain", interruptOnCancel = false)
      spark.sparkContext.parallelize(Seq(1), 1).count()
      spark.sparkContext.clearJobGroup()
      val deadline = System.nanoTime() + 10000000000L
      while (!sawEndOf(marker) && System.nanoTime() < deadline) Thread.sleep(5)
    }
  }

  final case class QueryStat(name: String, wallMs: Double, jobs: Int, jobMs: Long, res: OptStopSparkResult)

  /** Issue each query once under its own job group, with a listener on. */
  private def tracedQueries(spark: SparkSession, p: Prepared, tracer: Tracer,
                            exact: Map[String, QueryRun]): Seq[(QueryStat, Boolean)] = {
    val listener = new JobListener
    spark.sparkContext.addSparkListener(listener)
    val out = Queries.zipWithIndex.map { case (q, i) =>
      tracer.request = i
      spark.sparkContext.setJobGroup(s"perfbench-q$i", q.name, interruptOnCancel = false)
      val t0  = System.nanoTime()
      val res = tracer.span("spark.optstop")(runQuery(p, q))
      val ms  = (System.nanoTime() - t0) / 1e6
      spark.sparkContext.clearJobGroup()
      (q, i, ms, res)
    }
    tracer.request = -1L
    listener.drain(spark)
    spark.sparkContext.removeSparkListener(listener)
    out.map { case (q, i, ms, res) =>
      val (jobs, jobMs) = listener.jobs(s"perfbench-q$i")
      (QueryStat(q.name, ms, jobs, jobMs, res), check(q, res, exact(q.name)))
    }
  }

  /** Spark layer metrics from a set of traced queries. */
  private def layerMetrics(stats: Seq[QueryStat], exactGroupByMs: Double, scrambleS: Double): Seq[Metric] = {
    val n = stats.size.toDouble
    Seq(
      Metric("spark.jobs_per_query", stats.map(_.jobs).sum / n, "count"),
      Metric("spark.job_ms_per_query", stats.map(_.jobMs).sum / n, "ms"),
      Metric("spark.driver_ms_per_query", stats.map(s => s.wallMs - s.jobMs).sum / n, "ms"),
      Metric("spark.rows_read", stats.map(_.res.totalRowsRead).sum / n, "rows"),
      Metric("spark.final_prefix", stats.map(_.res.finalPrefix).sum / n, "rows"),
      Metric("spark.read_ratio",
        stats.map(_.res.finalPrefix).sum.toDouble / stats.map(_.res.totalRowsRead).sum, "ratio"),
      Metric("spark.scramble_s", scrambleS, "s"),
      Metric("spark.exact_groupby_ms", exactGroupByMs, "ms"))
  }

  /** Spark layer sweep for a traced run: set up at [[Sf]] from `seed`,
    * issue every query once untraced (first-use cost) and once under the
    * listener, and time an exact group-by. Every answer is checked against
    * the exact group-by.
    */
  def sweep(spark: SparkSession, seed: Long, tracer: Tracer): FastFrameBench.Sweep = {
    val p = tracer.span("setup.spark")(prepare(spark, seed, tracer))
    try {
      val exact  = Queries.map(q => q.name -> exactAnswer(p, q)).toMap
      val warmOk = Queries.map(q => check(q, runQuery(p, q), exact(q.name)))
      val results = tracedQueries(spark, p, tracer, exact)
      val gb = Stats.median((0 until 3).map { _ =>
        Clock.seconds(tracer.span("spark.exact_groupby")(exactAnswer(p, FlightsQueries.q9)))._2 * 1e3
      })
      FastFrameBench.Sweep(layerMetrics(results.map(_._1), gb, p.scrambleS),
        warmOk.size + results.size, warmOk.count(!_) + results.count(!_._2),
        Seq(f"spark layer sweep at sf=$Sf%.2f (${p.rows}%d rows, initial prefix $InitialPrefix%d): " +
          results.map { case (st, _) => s"${st.name} rounds=${st.res.rounds} jobs=${st.jobs}" }.mkString(", ")))
    } finally p.unpersist()
  }
}
