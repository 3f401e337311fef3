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
  * the driver folds the per-group states into a [[ViewLedger]] — δₖ,
  * the Theorem-3 online N⁺ and the running intersection — and stops as
  * soon as the stopping condition holds.
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
    val active    = new Array[Boolean](numViewsUpper)
    val scratch   = new StopCondition.Scratch(numViewsUpper)

    var r        = math.min(initialPrefix, totalRows)
    var rowsRead = 0L
    var done     = false

    while (!done) {
      ledger.nextRound()
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
        ledger.set(slot, s)
      }

      var g = 0
      while (g < numViewsUpper) { ledger.update(g, r); g += 1 }

      done = r >= totalRows || stop.mark(ledger, active, scratch) == 0
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
