package repro.fastframe

import repro.core.Interval

/** One group's bounds, as a result reports them: running sample count,
  * estimate ĝ, current (running-intersection) confidence interval, and
  * whether the group's view has been fully scanned (exact).
  */
final case class GroupBounds(gid: Int, m: Long, mean: Double, iv: Interval, exact: Boolean)

/** The per-view columns a stopping condition reads, by view slot
  * 0 until `numViews`, served in place by their owner ([[ViewLedger]]).
  * A slot that is not `present` holds a view known to be empty (fully
  * scanned, no rows): it does not exist and takes no part in any rule.
  */
trait ViewTable {
  def numViews: Int
  def present(g: Int): Boolean
  def m(g: Int): Long
  def mean(g: Int): Double
  def lo(g: Int): Double
  def hi(g: Int): Double
  def exact(g: Int): Boolean
}

/** The six stopping conditions of paper §4.2, each paired with its
  * active-group rule from §4.3. A group is *active* while it should keep
  * receiving samples; the query terminates when no group is active.
  * Exact (fully scanned) groups are never active.
  */
sealed trait StopCondition {

  /** Set `active(g)` for every slot g of `t` that still needs samples,
    * clear it for every other slot, and return how many are set.
    * Allocates nothing; `scratch` must hold at least `t.numViews` slots.
    */
  def mark(t: ViewTable, active: Array[Boolean], scratch: StopCondition.Scratch): Int

  /** Gids of the groups in `gs` that still need samples ([[mark]] over the
    * snapshot, whose slots are the positions in `gs`).
    */
  final def activeGroups(gs: IndexedSeq[GroupBounds]): Set[Int] = {
    val active = new Array[Boolean](gs.size)
    mark(new StopCondition.SnapshotTable(gs), active, new StopCondition.Scratch(gs.size))
    gs.indices.iterator.filter(active).map(gs(_).gid).toSet
  }
}

object StopCondition {

  /** Reusable sort space for [[StopCondition.mark]] over up to `capacity`
    * views. It belongs to one run: conditions are shared between callers.
    */
  final class Scratch(capacity: Int) {
    private val order = new Array[Int](capacity)
    private val key   = new Array[Double](capacity)

    /** The present slots of `t` in slot order; returns their number. */
    private[StopCondition] def present(t: ViewTable): Int = {
      var n = 0
      var g = 0
      while (g < t.numViews) {
        if (t.present(g)) { order(n) = g; n += 1 }
        g += 1
      }
      n
    }

    private[StopCondition] def setKey(g: Int, k: Double): Unit = key(g) = k

    /** The i-th listed slot. */
    private[StopCondition] def at(i: Int): Int = order(i)

    /** Of the first `n` listed slots, move the `k` first by key
      * (`java.lang.Double.compare`) and then by slot to positions
      * 0 until `k`, in that order, and leave the other `n - k` after them
      * in no particular order; `k = n` sorts them all. A bounded max-heap
      * over positions 0 until `k` keeps this at O(n log k).
      */
    private[StopCondition] def selectFirst(n: Int, k: Int): Unit = {
      var i = k / 2 - 1
      while (i >= 0) { siftDown(i, k); i -= 1 }
      i = k
      while (i < n) {
        if (before(order(i), order(0))) { swap(0, i); siftDown(0, k) }
        i += 1
      }
      i = k - 1
      while (i > 0) { swap(0, i); siftDown(0, i); i -= 1 }
    }

    /** Does slot x come before slot y, by key and then by slot? */
    private def before(x: Int, y: Int): Boolean = {
      val c = java.lang.Double.compare(key(x), key(y))
      c < 0 || (c == 0 && x < y)
    }

    private def swap(i: Int, j: Int): Unit = { val s = order(i); order(i) = order(j); order(j) = s }

    /** Restore the max-heap over positions 0 until `size` below `i`. */
    private def siftDown(i: Int, size: Int): Unit = {
      var p = i
      var c = 2 * p + 1
      while (c < size) {
        if (c + 1 < size && before(order(c), order(c + 1))) c += 1
        if (!before(order(p), order(c))) return
        swap(p, c)
        p = c
        c = 2 * p + 1
      }
    }
  }

  /** A snapshot as a table: slot i is `gs(i)`, and every slot is present. */
  private final class SnapshotTable(gs: IndexedSeq[GroupBounds]) extends ViewTable {
    def numViews: Int            = gs.size
    def present(g: Int): Boolean = true
    def m(g: Int): Long          = gs(g).m
    def mean(g: Int): Double     = gs(g).mean
    def lo(g: Int): Double       = gs(g).iv.lo
    def hi(g: Int): Double       = gs(g).iv.hi
    def exact(g: Int): Boolean   = gs(g).exact
  }

  /** A rule that looks at each view on its own: a present, inexact view
    * is active while `needsSamples` holds for it.
    */
  sealed abstract class PerView extends StopCondition {
    protected def needsSamples(t: ViewTable, g: Int): Boolean

    final override def mark(t: ViewTable, active: Array[Boolean], scratch: Scratch): Int = {
      var n = 0
      var g = 0
      while (g < t.numViews) {
        val on = t.present(g) && !t.exact(g) && needsSamples(t, g)
        active(g) = on
        if (on) n += 1
        g += 1
      }
      n
    }
  }

  /** Clear `active` over `t`'s slots; returns 0. */
  private def clear(t: ViewTable, active: Array[Boolean]): Int = {
    java.util.Arrays.fill(active, 0, t.numViews, false)
    0
  }

  /** ❶ Desired Samples Taken: active until m samples contribute. */
  final case class DesiredSamples(m: Long) extends PerView {
    require(m > 0, "desired sample count must be positive")
    protected def needsSamples(t: ViewTable, g: Int): Boolean = t.m(g) < m
  }

  /** ❷ Sufficient Absolute Accuracy: active while width ≥ ε. */
  final case class AbsoluteWidth(eps: Double) extends PerView {
    require(eps > 0, "eps must be positive")
    protected def needsSamples(t: ViewTable, g: Int): Boolean = t.hi(g) - t.lo(g) >= eps
  }

  /** ❸ Sufficient Relative Accuracy: active while
    * max{(g_r−ĝ)/g_r, (ĝ−g_ℓ)/g_ℓ} ≥ ε. An interval straddling 0 can
    * never certify a relative error, so such groups stay active (they
    * terminate via exactness at the latest).
    */
  final case class RelativeWidth(eps: Double) extends PerView {
    require(eps > 0, "eps must be positive")
    protected def needsSamples(t: ViewTable, g: Int): Boolean = {
      val lo = t.lo(g)
      val hi = t.hi(g)
      (lo <= 0 && hi >= 0) ||
        math.max((hi - t.mean(g)) / math.abs(hi), (t.mean(g) - lo) / math.abs(lo)) >= eps
    }
  }

  /** ❹ Threshold Side Determined: active while v ∈ [g_ℓ, g_r]. */
  final case class ThresholdSide(v: Double) extends PerView {
    protected def needsSamples(t: ViewTable, g: Int): Boolean = t.lo(g) <= v && v <= t.hi(g)
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

    override def mark(t: ViewTable, active: Array[Boolean], scratch: Scratch): Int = {
      clear(t, active)
      val n = scratch.present(t)
      if (n <= k) return 0
      var i = 0
      while (i < n) {
        val g = scratch.at(i)
        scratch.setKey(g, if (largest) -t.mean(g) else t.mean(g))
        i += 1
      }
      // Only the first K + 1 by estimate need their order: position K - 1
      // and K give mid, and the loop below asks only "position < K?".
      scratch.selectFirst(n, k + 1)
      val mid = (t.mean(scratch.at(k - 1)) + t.mean(scratch.at(k))) / 2
      // The top group's bound nearest the rest, and the rest's nearest the top.
      var topNear  = if (largest) Double.PositiveInfinity else Double.NegativeInfinity
      var restNear = if (largest) Double.NegativeInfinity else Double.PositiveInfinity
      var count    = 0
      i = 0
      while (i < n) {
        val g = scratch.at(i)
        val crosses =
          if (i < k) {
            if (largest) { topNear = math.min(topNear, t.lo(g)); t.lo(g) <= mid }
            else { topNear = math.max(topNear, t.hi(g)); t.hi(g) >= mid }
          } else {
            if (largest) { restNear = math.max(restNear, t.hi(g)); t.hi(g) >= mid }
            else { restNear = math.min(restNear, t.lo(g)); t.lo(g) <= mid }
          }
        if (crosses && !t.exact(g)) { active(g) = true; count += 1 }
        i += 1
      }
      // Exactness can leave crossing-but-frozen groups; separation itself
      // decides termination then.
      val separated = if (largest) topNear > restNear else topNear < restNear
      if (count == 0 || separated) clear(t, active) else count
    }
  }

  /** ❻ Groups Ordered Correctly: a group is active while its interval
    * intersects any other group's interval.
    */
  case object GroupsOrdered extends StopCondition {
    override def mark(t: ViewTable, active: Array[Boolean], scratch: Scratch): Int = {
      clear(t, active)
      val n = scratch.present(t)
      if (n <= 1) return 0
      var i = 0
      while (i < n) { val g = scratch.at(i); scratch.setKey(g, t.lo(g)); i += 1 }
      scratch.selectFirst(n, n)
      // Sorted by lo, interval i meets a later one iff it reaches the next
      // lo, and an earlier one iff the highest earlier hi reaches its lo.
      var count   = 0
      var reachHi = Double.NegativeInfinity
      i = 0
      while (i < n) {
        val g = scratch.at(i)
        val meets = (i > 0 && reachHi >= t.lo(g)) || (i + 1 < n && t.lo(scratch.at(i + 1)) <= t.hi(g))
        if (meets && !t.exact(g)) { active(g) = true; count += 1 }
        reachHi = math.max(reachHi, t.hi(g))
        i += 1
      }
      count
    }
  }
}
