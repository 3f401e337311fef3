package repro.spark

import org.apache.spark.sql.{Encoder, Encoders, SparkSession}
import org.apache.spark.sql.expressions.Aggregator
import org.apache.spark.sql.functions

import repro.core.{Bounders, MomentBounder, MomentState}

/** Distributed CI state aggregation: [[MomentState]] as a Spark
  * aggregation buffer (see DESIGN.md, "Extension-point mapping").
  *
  * Partitions fold rows with the Welford update and merge with the Chan
  * combination, exactly the `update_state`/merge contract of
  * [[repro.core.ErrorBounder]]. [[MomentAggregator]] outputs the
  * per-group state itself; bound computation from the collected states
  * happens driver-side (δ budgeting and the online N⁺ need cross-group
  * context). [[CiAvgAggregator]] additionally evaluates a fixed-parameter
  * bounder inside the aggregation for the SQL-facing `ci_avg_*` functions.
  */
sealed abstract class MomentBuffer[OUT] extends Aggregator[Double, MomentState, OUT] {
  override def zero: MomentState = MomentState.empty
  override def reduce(b: MomentState, v: Double): MomentState = MomentState.update(b, v)
  override def merge(b1: MomentState, b2: MomentState): MomentState = MomentState.merge(b1, b2)
  override def bufferEncoder: Encoder[MomentState] = Encoders.product[MomentState]
}

/** The per-group [[MomentState]] as a typed `Aggregator`. */
final class MomentAggregator extends MomentBuffer[MomentState] {
  override def finish(r: MomentState): MomentState = r
  override def outputEncoder: Encoder[MomentState] = Encoders.product[MomentState]
}

/** Output row of a `ci_avg_*` aggregation. */
final case class CiRow(mean: Double, lo: Double, hi: Double, m: Long)

/** A complete (1−δ) AVG confidence interval as a Spark aggregate, for a
  * known view size `n` and catalog range [a, b]. Every value must lie in
  * [a, b]: the bound is SSI only for such data, so a state outside it
  * fails the aggregation.
  */
final class CiAvgAggregator(bounder: MomentBounder, a: Double, b: Double, n: Long, delta: Double)
  extends MomentBuffer[CiRow] {

  override def finish(s: MomentState): CiRow = {
    require(s.min >= a && s.max <= b,
      s"value ${if (s.min < a) s.min else s.max} outside [a, b] = [$a, $b]")
    val iv = bounder.interval(s, a, b, n, delta)
    CiRow(s.mean, iv.lo, iv.hi, s.m)
  }

  override def outputEncoder: Encoder[CiRow] = Encoders.product[CiRow]
}

object CiAggregates {

  /** The untyped UDAF view of [[MomentAggregator]], usable with
    * `df.groupBy(...).agg(...)`.
    */
  def momentUdaf: org.apache.spark.sql.expressions.UserDefinedFunction =
    functions.udaf(new MomentAggregator, Encoders.scalaDouble)

  /** Register `ci_moments` plus one `ci_avg_<bounder>` function per
    * Table-5 bounder into the session's function registry, making the
    * paper's CIs available from Spark SQL, e.g.
    *
    *   SELECT g, ci_avg_bernstein_rt(x) FROM t GROUP BY g
    *
    * Function names: ci_avg_hoeffding, ci_avg_hoeffding_rt,
    * ci_avg_bernstein, ci_avg_bernstein_rt.
    */
  def register(spark: SparkSession, a: Double, b: Double, n: Long, delta: Double): Unit = {
    spark.udf.register("ci_moments", momentUdaf)
    Bounders.all.foreach { bd =>
      val fname = "ci_avg_" + bd.name.toLowerCase.replace("+", "_")
      spark.udf.register(fname,
        functions.udaf(new CiAvgAggregator(bd, a, b, n, delta), Encoders.scalaDouble))
    }
  }
}
