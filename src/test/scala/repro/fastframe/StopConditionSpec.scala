package repro.fastframe

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Interval
import StopCondition._
import StopConditionReference.Satisfied

/** The six stopping conditions and their active-group rules (paper §4.2–4.3). */
class StopConditionSpec extends AnyFunSuite {

  private def gb(gid: Int, m: Long, mean: Double, lo: Double, hi: Double,
                 exact: Boolean = false): GroupBounds =
    GroupBounds(gid, m, mean, Interval(lo, hi), exact)

  test("DesiredSamples: active until m samples, exact groups never active") {
    val c = DesiredSamples(100)
    val gs = IndexedSeq(gb(0, 50, 1, 0, 2), gb(1, 150, 1, 0, 2), gb(2, 10, 1, 0, 2, exact = true))
    assert(c.activeGroups(gs) === Set(0))
    assert(!c.satisfied(gs))
    assert(c.satisfied(IndexedSeq(gb(0, 100, 1, 0, 2))))
  }

  test("DesiredSamples rejects nonpositive m") {
    assertThrows[IllegalArgumentException](DesiredSamples(0))
  }

  test("AbsoluteWidth: active while width >= eps") {
    val c = AbsoluteWidth(0.5)
    assert(c.activeGroups(IndexedSeq(gb(0, 1, 1, 0.8, 1.2))) === Set.empty)
    assert(c.activeGroups(IndexedSeq(gb(0, 1, 1, 0.5, 1.5))) === Set(0))
  }

  test("RelativeWidth: straddling zero keeps a group active") {
    val c = RelativeWidth(0.5)
    assert(c.activeGroups(IndexedSeq(gb(0, 1, 0.1, -0.2, 0.4))) === Set(0))
  }

  test("RelativeWidth: satisfied when both relative errors below eps") {
    val c = RelativeWidth(0.5)
    // mean 10, iv [8, 12]: (12-10)/12 = 0.167, (10-8)/8 = 0.25 < 0.5
    assert(c.activeGroups(IndexedSeq(gb(0, 1, 10, 8, 12))) === Set.empty)
    // mean 10, iv [4, 30]: (30-10)/30 = 0.67 >= 0.5
    assert(c.activeGroups(IndexedSeq(gb(0, 1, 10, 4, 30))) === Set(0))
  }

  test("RelativeWidth works for negative aggregates") {
    val c = RelativeWidth(0.5)
    // mean -10, iv [-12, -8]: (−8−(−10))/8 = 0.25 and (−10−(−12))/12 = 0.167
    assert(c.activeGroups(IndexedSeq(gb(0, 1, -10, -12, -8))) === Set.empty)
  }

  test("ThresholdSide: active while the interval contains v") {
    val c = ThresholdSide(5.0)
    val gs = IndexedSeq(gb(0, 1, 6, 5.5, 7.0), gb(1, 1, 5, 4.0, 6.0), gb(2, 1, 1, 0.0, 2.0))
    assert(c.activeGroups(gs) === Set(1))
  }

  test("TopKSeparated: satisfied when top-k bounds clear the rest") {
    val c = TopKSeparated(2, largest = true)
    val gs = IndexedSeq(
      gb(0, 1, 10, 9.5, 10.5), gb(1, 1, 9, 8.5, 9.4), gb(2, 1, 5, 4.0, 6.0), gb(3, 1, 4, 3.0, 5.0))
    assert(c.satisfied(gs))
  }

  test("TopKSeparated: crossing groups near the boundary are active") {
    val c = TopKSeparated(1, largest = true)
    val gs = IndexedSeq(gb(0, 1, 10, 8.0, 12.0), gb(1, 1, 9, 7.5, 11.0), gb(2, 1, 2, 1.0, 3.0))
    // mid between est 10 and 9 is 9.5; group0 lo 8 <= 9.5 → active;
    // group1 hi 11 >= 9.5 → active; group2 hi 3 < 9.5 → inactive.
    assert(c.activeGroups(gs) === Set(0, 1))
  }

  test("TopKSeparated bottom-k variant mirrors") {
    val c = TopKSeparated(2, largest = false)
    val gs = IndexedSeq(
      gb(0, 1, 1, 0.5, 1.4), gb(1, 1, 2, 1.6, 2.4), gb(2, 1, 8, 7.0, 9.0), gb(3, 1, 9, 8.5, 9.5))
    assert(c.satisfied(gs))
    val crossing = IndexedSeq(
      gb(0, 1, 1, 0.5, 5.0), gb(1, 1, 2, 1.0, 6.0), gb(2, 1, 8, 1.5, 9.0), gb(3, 1, 9, 8.5, 9.5))
    assert(crossing.nonEmpty && !c.satisfied(crossing))
  }

  test("TopKSeparated with k >= group count is trivially satisfied") {
    val c = TopKSeparated(5, largest = true)
    assert(c.satisfied(IndexedSeq(gb(0, 1, 1, 0, 2), gb(1, 1, 2, 1, 3))))
  }

  test("GroupsOrdered: overlapping intervals stay active, disjoint terminate") {
    val overlapping = IndexedSeq(gb(0, 1, 1, 0.0, 2.0), gb(1, 1, 1.5, 1.0, 3.0), gb(2, 1, 9, 8.0, 10.0))
    assert(GroupsOrdered.activeGroups(overlapping) === Set(0, 1))
    val disjoint = IndexedSeq(gb(0, 1, 1, 0.0, 1.9), gb(1, 1, 2.5, 2.0, 3.0), gb(2, 1, 9, 8.0, 10.0))
    assert(GroupsOrdered.satisfied(disjoint))
  }

  test("GroupsOrdered: single group is trivially ordered") {
    assert(GroupsOrdered.satisfied(IndexedSeq(gb(0, 1, 1, 0.0, 5.0))))
  }

  test("GroupsOrdered: overlap detection is not fooled by lo-ordering") {
    // group0 spans everything; group2 overlaps it but not group1.
    val gs = IndexedSeq(gb(0, 1, 5, 0.0, 10.0), gb(1, 1, 1, 0.5, 1.0), gb(2, 1, 9, 8.0, 9.5))
    assert(GroupsOrdered.activeGroups(gs) === Set(0, 1, 2))
  }

  test("exact groups are excluded from active sets everywhere") {
    val gs = IndexedSeq(
      gb(0, 1, 5, 0.0, 10.0, exact = true), gb(1, 1, 5, 0.0, 10.0, exact = true))
    assert(ThresholdSide(5.0).activeGroups(gs) === Set.empty)
    assert(AbsoluteWidth(0.1).activeGroups(gs) === Set.empty)
    assert(DesiredSamples(10).activeGroups(gs) === Set.empty)
  }
}
