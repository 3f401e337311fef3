package repro.fastframe

/** A FastFrame aggregate query: AVG(`aggCol`) over rows passing `filter`,
  * optionally grouped by categorical columns, terminating per `stop`.
  * Each (group × filter) combination is one aggregate view (paper
  * Definition 5); the engine divides δ by the number of views.
  */
final case class FrameQuery(
    name: String,
    aggCol: String,
    filter: Predicate,
    groupBy: Seq[String],
    stop: StopCondition)

/** Final per-group result row. `key` is empty for ungrouped queries. */
final case class GroupResult(
    key: Seq[String],
    bounds: GroupBounds)

/** Outcome of one engine run: all group results (empty groups excluded)
  * plus run metrics.
  */
final case class QueryRun(
    query: FrameQuery,
    results: IndexedSeq[GroupResult],
    metrics: Metrics) {

  /** Groups whose aggregate is certainly above `v` (HAVING > v). */
  def groupsAbove(v: Double): Set[Seq[String]] =
    results.filter(r => r.bounds.iv.lo > v || (r.bounds.exact && r.bounds.mean > v)).map(_.key).toSet

  /** Groups whose aggregate is certainly below `v` (HAVING < v). */
  def groupsBelow(v: Double): Set[Seq[String]] =
    results.filter(r => r.bounds.iv.hi < v || (r.bounds.exact && r.bounds.mean < v)).map(_.key).toSet

  /** Keys of the k groups with the largest (smallest) estimates. */
  def topK(k: Int, largest: Boolean): Seq[Seq[String]] = {
    val sorted = if (largest) results.sortBy(-_.bounds.mean) else results.sortBy(_.bounds.mean)
    sorted.take(k).map(_.key)
  }

  /** All keys ordered by estimate ascending. */
  def ordering: Seq[Seq[String]] = results.sortBy(_.bounds.mean).map(_.key)
}

/** Run metrics. `blocksFetched` is the paper's primary hardware-
  * independent cost metric; `bitmapProbes` counts index accesses
  * (per-block filter probes for a bitmap-prunable filter, plus per-block
  * group probes for ActiveSync and 64-block words for ActivePeek);
  * `crossedViews` counts views whose running intersection crossed
  * ([[ViewLedger.crossedViews]]). Exact is one Scan round: it reports
  * 1 round and only its filter probes.
  */
final case class Metrics(
    blocksFetched: Long,
    rowsProcessed: Long,
    rounds: Int,
    wallNanos: Long,
    bitmapProbes: Long,
    crossedViews: Int = 0) {

  def wallMillis: Double = wallNanos / 1e6
}
