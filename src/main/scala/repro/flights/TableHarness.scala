package repro.flights

import repro.fastframe.{FrameQuery, QueryRun, StopCondition}

/** The correctness check every approximate answer must pass against the
  * exact answer, mirroring the paper's "fraction of correct queries"
  * metric (§5.3) — which must be 1.0 for SSI bounders. The Table-5/6
  * measurements built on it are the test-scope `PaperTables`.
  */
object TableHarness {

  /** Semantic correctness of an approximate run against the exact run,
    * per the query's stopping condition.
    */
  def isCorrect(q: FrameQuery, approx: QueryRun, exact: QueryRun): Boolean = q.stop match {
    case StopCondition.RelativeWidth(_) | StopCondition.AbsoluteWidth(_) |
        StopCondition.DesiredSamples(_) =>
      // Coverage: every exact group mean must lie in its reported interval.
      val exactMeans = exact.results.map(r => r.key -> r.bounds.mean).toMap
      approx.results.forall { r =>
        exactMeans.get(r.key).forall(g => r.bounds.iv.contains(g) || r.bounds.exact)
      }
    case StopCondition.ThresholdSide(v) =>
      approx.groupsAbove(v) == exact.groupsAbove(v) &&
        approx.groupsBelow(v) == exact.groupsBelow(v)
    case StopCondition.TopKSeparated(k, largest) =>
      approx.topK(k, largest).toSet == exact.topK(k, largest).toSet
    case StopCondition.GroupsOrdered =>
      approx.ordering == exact.ordering
  }
}
