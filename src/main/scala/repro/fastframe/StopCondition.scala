package repro.fastframe

import repro.core.Interval

/** Per-group snapshot handed to stopping conditions: running sample count,
  * estimate ĝ, current (running-intersection) confidence interval, and
  * whether the group's view has been fully scanned (exact).
  */
final case class GroupBounds(gid: Int, m: Long, mean: Double, iv: Interval, exact: Boolean)

/** The six stopping conditions of paper §4.2, each paired with its
  * active-group rule from §4.3. A group is *active* while it should keep
  * receiving samples; the query terminates when no group is active.
  * Exact (fully scanned) groups are never active.
  */
sealed trait StopCondition {

  /** Indices (gids) of groups that still need samples. */
  def activeGroups(gs: IndexedSeq[GroupBounds]): Set[Int]

  final def satisfied(gs: IndexedSeq[GroupBounds]): Boolean = activeGroups(gs).isEmpty
}

object StopCondition {

  private def live(g: GroupBounds): Boolean = !g.exact

  /** ❶ Desired Samples Taken: active until m samples contribute. */
  final case class DesiredSamples(m: Long) extends StopCondition {
    require(m > 0, "desired sample count must be positive")
    override def activeGroups(gs: IndexedSeq[GroupBounds]): Set[Int] =
      gs.iterator.filter(g => live(g) && g.m < m).map(_.gid).toSet
  }

  /** ❷ Sufficient Absolute Accuracy: active while width ≥ ε. */
  final case class AbsoluteWidth(eps: Double) extends StopCondition {
    require(eps > 0, "eps must be positive")
    override def activeGroups(gs: IndexedSeq[GroupBounds]): Set[Int] =
      gs.iterator.filter(g => live(g) && g.iv.width >= eps).map(_.gid).toSet
  }

  /** ❸ Sufficient Relative Accuracy: active while
    * max{(g_r−ĝ)/g_r, (ĝ−g_ℓ)/g_ℓ} ≥ ε. An interval straddling 0 can
    * never certify a relative error, so such groups stay active (they
    * terminate via exactness at the latest).
    */
  final case class RelativeWidth(eps: Double) extends StopCondition {
    require(eps > 0, "eps must be positive")

    def relErr(g: GroupBounds): Double =
      if (g.iv.lo <= 0 && g.iv.hi >= 0) Double.PositiveInfinity
      else math.max((g.iv.hi - g.mean) / math.abs(g.iv.hi), (g.mean - g.iv.lo) / math.abs(g.iv.lo))

    override def activeGroups(gs: IndexedSeq[GroupBounds]): Set[Int] =
      gs.iterator.filter(g => live(g) && relErr(g) >= eps).map(_.gid).toSet
  }

  /** ❹ Threshold Side Determined: active while v ∈ [g_ℓ, g_r]. */
  final case class ThresholdSide(v: Double) extends StopCondition {
    override def activeGroups(gs: IndexedSeq[GroupBounds]): Set[Int] =
      gs.iterator.filter(g => live(g) && g.iv.contains(v)).map(_.gid).toSet
  }

  /** ❺ Top-K (or Bottom-K) Separated: the K groups with the largest
    * (smallest) estimates must have bounds disjoint from every remaining
    * group's bounds. Active-group rule (paper §4.3): with groups sorted by
    * estimate, let mid be the midpoint between the K-th and (K+1)-th
    * estimates; a top-K group is active while its far bound crosses mid,
    * and a remaining group while its near bound crosses mid.
    */
  final case class TopKSeparated(k: Int, largest: Boolean) extends StopCondition {
    require(k > 0, "k must be positive")

    override def activeGroups(gs: IndexedSeq[GroupBounds]): Set[Int] = {
      if (gs.size <= k) return Set.empty
      val sorted = if (largest) gs.sortBy(-_.mean) else gs.sortBy(_.mean)
      val top    = sorted.take(k)
      val rest   = sorted.drop(k)
      val mid    = (sorted(k - 1).mean + sorted(k).mean) / 2
      val active = Set.newBuilder[Int]
      if (largest) {
        top.iterator.filter(g => live(g) && g.iv.lo <= mid).foreach(g => active += g.gid)
        rest.iterator.filter(g => live(g) && g.iv.hi >= mid).foreach(g => active += g.gid)
      } else {
        top.iterator.filter(g => live(g) && g.iv.hi >= mid).foreach(g => active += g.gid)
        rest.iterator.filter(g => live(g) && g.iv.lo <= mid).foreach(g => active += g.gid)
      }
      val result = active.result()
      // Exactness can leave crossing-but-frozen groups; separation itself
      // decides termination then.
      if (result.isEmpty || separated(top, rest)) Set.empty else result
    }

    private def separated(top: IndexedSeq[GroupBounds], rest: IndexedSeq[GroupBounds]): Boolean =
      if (largest) top.map(_.iv.lo).min > rest.map(_.iv.hi).max
      else top.map(_.iv.hi).max < rest.map(_.iv.lo).min
  }

  /** ❻ Groups Ordered Correctly: a group is active while its interval
    * intersects any other group's interval.
    */
  case object GroupsOrdered extends StopCondition {
    override def activeGroups(gs: IndexedSeq[GroupBounds]): Set[Int] = {
      if (gs.size <= 1) return Set.empty
      val sorted = gs.sortBy(_.iv.lo)
      val active = Set.newBuilder[Int]
      var i = 0
      while (i < sorted.size - 1) {
        // Sorted by lo, interval i intersects j > i iff it reaches j's lo
        // (i.lo ≤ j.lo ≤ j.hi holds already).
        var j = i + 1
        while (j < sorted.size && sorted(j).iv.lo <= sorted(i).iv.hi) {
          if (live(sorted(i))) active += sorted(i).gid
          if (live(sorted(j))) active += sorted(j).gid
          j += 1
        }
        i += 1
      }
      active.result()
    }
  }
}
