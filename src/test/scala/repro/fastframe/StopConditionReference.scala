package repro.fastframe

import StopCondition._

/** The active-group rules of paper §4.3 as sets over a snapshot, written
  * as plainly as possible: the reference that [[StopCondition.mark]] is
  * checked against. Every group of the snapshot exists; exact groups are
  * never active.
  */
object StopConditionReference {

  private def live(g: GroupBounds): Boolean = !g.exact

  /** `c.satisfied(gs)`: `c` keeps no group of `gs` active. */
  implicit final class Satisfied(private val c: StopCondition) extends AnyVal {
    def satisfied(gs: IndexedSeq[GroupBounds]): Boolean = c.activeGroups(gs).isEmpty
  }

  /** Gids of the groups in `gs` that `c` keeps active. */
  def activeGroups(c: StopCondition, gs: IndexedSeq[GroupBounds]): Set[Int] = c match {
    case DesiredSamples(m) =>
      gs.iterator.filter(g => live(g) && g.m < m).map(_.gid).toSet
    case AbsoluteWidth(eps) =>
      gs.iterator.filter(g => live(g) && g.iv.width >= eps).map(_.gid).toSet
    case RelativeWidth(eps) =>
      gs.iterator.filter(g => live(g) && relErr(g) >= eps).map(_.gid).toSet
    case ThresholdSide(v) =>
      gs.iterator.filter(g => live(g) && g.iv.contains(v)).map(_.gid).toSet
    case TopKSeparated(k, largest) => topK(k, largest, gs)
    case GroupsOrdered             => ordered(gs)
  }

  /** ❸: an interval straddling 0 never certifies a relative error. */
  private def relErr(g: GroupBounds): Double =
    if (g.iv.lo <= 0 && g.iv.hi >= 0) Double.PositiveInfinity
    else math.max((g.iv.hi - g.mean) / math.abs(g.iv.hi), (g.mean - g.iv.lo) / math.abs(g.iv.lo))

  /** ❺: sorted by estimate, with mid between the K-th and (K+1)-th, a
    * top-K group is active while its far bound crosses mid and a remaining
    * group while its near bound does; separation ends the query anyway.
    */
  private def topK(k: Int, largest: Boolean, gs: IndexedSeq[GroupBounds]): Set[Int] = {
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
    val separated =
      if (largest) top.map(_.iv.lo).min > rest.map(_.iv.hi).max
      else top.map(_.iv.hi).max < rest.map(_.iv.lo).min
    if (result.isEmpty || separated) Set.empty else result
  }

  /** ❻: a group is active while its interval meets any other group's. */
  private def ordered(gs: IndexedSeq[GroupBounds]): Set[Int] = {
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
