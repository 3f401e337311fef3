package repro.spark

import org.apache.spark.sql.{DataFrame, functions => F}

import repro.core.{Interval, MomentBounder, MomentState}
import repro.fastframe.{StopCondition, ViewLedger}

import scala.collection.mutable

/** One group's outcome from [[OptStopSpark.run]]. */
final case class SparkGroupCi(
    key: Seq[String], m: Long, mean: Double, iv: Interval, exact: Boolean)

/** Outcome of an optional-stopping Spark run. `finalPrefix` is the data
  * the answer needed (the paper's early-termination metric);
  * `totalRowsRead` additionally counts the re-reads of each growing
  * prefix (our rounds re-aggregate from scratch rather than maintaining
  * incremental state across executors). `crossedViews` counts views whose
  * running intersection crossed ([[ViewLedger.crossedViews]]).
  */
final case class OptStopSparkResult(
    groups: IndexedSeq[SparkGroupCi],
    finalPrefix: Long,
    totalRowsRead: Long,
    rounds: Int,
    crossedViews: Int = 0)

/** The paper's Algorithm 5 rendered as distributed dataflow: each round
  * aggregates a scramble prefix twice the size of the last with the
  * [[MomentAggregator]] (one Spark group-by over sampled partitions), then
  * the driver sets the per-group states of the active views into a
  * [[ViewLedger]] and ends the round there ([[ViewLedger.endRound]]: δₖ,
  * the Theorem-3 online N⁺, the running intersection and the stopping
  * condition's active set). The run stops once no view is active or the
  * prefix is the whole scramble.
  *
  * As in FastFrame (paper §4.3), a view is sampled only while it is
  * active: an inactive view keeps the m, mean and interval of the round
  * it went inactive, and its N⁺ counts only the prefix rows added while
  * it was active. A view that a top-K or ordering condition re-activates
  * takes the state of the whole prefix again, which only loosens its N⁺.
  *
  * The ledger has `numViewsUpper` slots, one per view of the group domain;
  * groups get slots in first-seen order. Slots no prefix has reached yet
  * enter the stopping condition with m = 0 and interval [a, b] (paper
  * §4.3), so a view that appears late still keeps the run going.
  *
  * Every value must lie in the caller's [a, b]: the bounds are SSI only
  * for such data, so a group state outside it fails the run.
  */
object OptStopSpark {

  def run(
      scrambled: DataFrame,
      valueCol: String,
      groupCols: Seq[String],
      bounder: MomentBounder,
      a: Double,
      b: Double,
      delta: Double,
      stop: StopCondition,
      numViewsUpper: Int,
      initialPrefix: Long = 40000L): OptStopSparkResult = {
    require(numViewsUpper >= 1, "numViewsUpper must be >= 1")
    require(initialPrefix >= 1, "initialPrefix must be >= 1")

    val totalRows = scrambled.count()
    val ledger    = new ViewLedger(numViewsUpper, bounder, a, b, delta, totalRows)
    val slotOf    = mutable.LinkedHashMap.empty[Seq[String], Int]

    var r        = math.min(initialPrefix, totalRows)
    var rowsRead = 0L
    var done     = false

    while (!done) {
      rowsRead += r

      val aggCol = CiAggregates.momentUdaf(F.col(valueCol)).as("state")
      val prefix = SparkScramble.prefix(scrambled, r)
      val grouped =
        if (groupCols.isEmpty) prefix.agg(aggCol)
        else prefix.groupBy(groupCols.map(F.col): _*).agg(aggCol)

      grouped.collect().foreach { row =>
        val key  = groupCols.indices.map(i => Option(row.get(i)).map(_.toString).getOrElse("∅"))
        val slot = slotOf.getOrElseUpdate(key, {
          require(slotOf.size < numViewsUpper,
            s"more than numViewsUpper = $numViewsUpper groups in $groupCols")
          slotOf.size
        })
        val st = row.getStruct(groupCols.length)
        val s  = MomentState(st.getLong(0), st.getDouble(1), st.getDouble(2),
          st.getDouble(3), st.getDouble(4))
        require(s.min >= a && s.max <= b,
          s"group $key has value ${if (s.min < a) s.min else s.max} outside [a, b] = [$a, $b]")
        if (ledger.active(slot)) ledger.set(slot, s)
      }

      ledger.endRound(r, stop)
      done = r >= totalRows || ledger.numActive == 0
      if (!done) r = math.min(totalRows, 2 * r)
    }

    val groups = slotOf.toIndexedSeq.map { case (key, g) =>
      val s = ledger.stateOf(g)
      SparkGroupCi(key, s.m, s.mean, ledger.interval(g), ledger.exact(g))
    }

    OptStopSparkResult(groups, finalPrefix = r, totalRowsRead = rowsRead, rounds = ledger.rounds,
      crossedViews = ledger.crossedViews)
  }
}
