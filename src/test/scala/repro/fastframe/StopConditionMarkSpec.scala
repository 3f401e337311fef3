package repro.fastframe

import java.lang.management.ManagementFactory

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertyChecks
import repro.core.{Bounders, Interval, MomentState}
import StopCondition._
import StopConditionReference.Satisfied

import scala.collection.mutable
import scala.util.Random

/** [[StopCondition.mark]] against [[StopConditionReference]] on random
  * view tables, and its allocation over a ledger of F-q6's size.
  */
class StopConditionMarkSpec extends AnyFunSuite with PropertyChecks {
  import StopConditionMarkSpec._

  override protected def propertyTrials: Int = 4000

  private val (a, b) = (-2.0, 2.0)

  // Few distinct values, so that means tie, intervals touch, and ±0.0 meet.
  private val grid = Seq(-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0)

  private val genInterval: Gen[(Double, Double)] = Gen.oneOf(
    Gen.oneOf(grid).map(v => (v, v)), // a collapsed crossing
    Gen.zip(Gen.oneOf(grid), Gen.oneOf(grid)).map { case (x, y) => if (x <= y) (x, y) else (y, x) })

  private val genView: Gen[View] = Gen.frequency(
    // not reached yet: no sample, the sure range
    2 -> Gen.const(View(0, 0.0, a, b, exact = false)),
    // fully covered and empty: absent
    1 -> genInterval.map { case (lo, hi) => View(0, 0.0, lo, hi, exact = true) },
    // fully covered: the exact mean
    2 -> Gen.zip(Gen.choose(1L, 6L), Gen.oneOf(grid)).map { case (m, v) => View(m, v, v, v, exact = true) },
    7 -> Gen.zip(Gen.choose(1L, 6L), Gen.oneOf(grid), genInterval).map { case (m, v, (lo, hi)) =>
      View(m, v, lo, hi, exact = false)
    })

  /** K for a table of `n` present slots: 1, 2 and 5 as the FLIGHTS
    * queries use, and ⌊n/2⌋ and n − 1, the costliest selections of K + 1.
    */
  private def genK(n: Int): Gen[Int] = Gen.oneOf(1, 2, 5, math.max(1, n / 2), math.max(1, n - 1))

  private def genCondition(n: Int): Gen[StopCondition] = Gen.oneOf(
    Gen.choose(1L, 6L).map(DesiredSamples(_)),
    Gen.oneOf(0.5, 1.0, 3.0).map(AbsoluteWidth(_)),
    Gen.oneOf(0.1, 0.5, 2.0).map(RelativeWidth(_)),
    Gen.oneOf(grid).map(ThresholdSide(_)),
    Gen.zip(genK(n), Gen.oneOf(true, false)).map { case (k, l) => TopKSeparated(k, l) },
    Gen.const(GroupsOrdered))

  /** Mostly up to 10 slots; one table in four has up to 490 (about 450 present). */
  private val genTable: Gen[IndexedSeq[View]] =
    Gen.frequency(3 -> Gen.choose(0, 10), 1 -> Gen.choose(11, MaxSlots))
      .flatMap(n => Gen.listOfN(n, genView)).map(_.toIndexedSeq)

  private val genCase: Gen[(StopCondition, IndexedSeq[View])] =
    genTable.flatMap(views => genCondition(views.count(_.present)).map(c => (c, views)))

  test("mark flags exactly the reference's active set, for all six conditions") {
    val seen    = mutable.Set.empty[String]
    val scratch = new Scratch(MaxSlots)
    val active  = new Array[Boolean](MaxSlots)
    forAll(genCase) { case (c, views) =>
      val snap = views.indices.filter(views(_).present).map { g =>
        val v = views(g)
        GroupBounds(g, v.m, v.mean, Interval(v.lo, v.hi), v.exact)
      }
      val want = StopConditionReference.activeGroups(c, snap)
      java.util.Arrays.fill(active, true) // stale flags from an earlier round
      val count = c.mark(new ArrayTable(views), active, scratch)
      val got   = views.indices.filter(active).toSet
      assert(got === want, s"$c over $views")
      assert(count === got.size)
      assert(c.activeGroups(snap) === want, s"adapter: $c over $snap")
      assert(c.satisfied(snap) === want.isEmpty)

      seen += c.getClass.getSimpleName.stripSuffix("$")
      c match {
        case TopKSeparated(k, largest) =>
          seen += s"largest=$largest"
          val n = snap.size
          if (n <= k) seen += "n<=k"
          if (n == k + 1) seen += "n=k+1"
          if (n > 300) {
            if (k == 1 || k == 2 || k == 5) seen += s"K=$k, n>300"
            if (k == n / 2) seen += "K=n/2, n>300"
            if (k == n - 1) seen += "K=n-1, n>300"
          }
        case _ =>
      }
      val means = snap.map(_.mean)
      if (means.distinct.size < means.size) seen += "tied means"
      if (means.exists(_.equals(-0.0)) && means.exists(_.equals(0.0))) seen += "±0.0"
      if (views.exists(v => v.exact && v.m > 0)) seen += "exact"
      if (views.exists(!_.present)) seen += "absent"
      if (views.exists(v => v.m == 0 && !v.exact)) seen += "m=0"
      if (views.exists(v => v.m > 0 && !v.exact && v.lo == v.hi)) seen += "point"
    }
    val needed = Set("DesiredSamples", "AbsoluteWidth", "RelativeWidth", "ThresholdSide",
      "TopKSeparated", "GroupsOrdered", "largest=true", "largest=false", "n<=k", "n=k+1",
      "K=1, n>300", "K=2, n>300", "K=5, n>300", "K=n/2, n>300", "K=n-1, n>300",
      "tied means", "±0.0", "exact", "absent", "m=0", "point")
    assert(needed.diff(seen).isEmpty, s"cases the generator never drew: ${needed.diff(seen)}")
  }

  test("mark over a 420-view ledger allocates nothing once warm") {
    val n      = 420
    val ledger = new ViewLedger(n, Bounders.BernsteinRT, 0.0, 100.0, 1e-15, 1000000L)
    val rng    = new Random(6L)
    ledger.nextRound()
    for (g <- 0 until n) {
      val m = 1L + rng.nextInt(400)
      ledger.set(g, MomentState(m, 30.0 + 20.0 * rng.nextDouble(), m * 50.0, 0.0, 100.0))
      ledger.update(g, 40000L)
    }
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val self    = Thread.currentThread().getId
    val scratch = new Scratch(n)
    val active  = new Array[Boolean](n)
    val conditions = Seq(DesiredSamples(300), AbsoluteWidth(5.0), RelativeWidth(0.1),
      ThresholdSide(40.0), TopKSeparated(5, largest = true), TopKSeparated(5, largest = false),
      GroupsOrdered)
    for (c <- conditions) {
      var i = 0
      while (i < 5000) { c.mark(ledger, active, scratch); i += 1 }
      val before = threads.getThreadAllocatedBytes(self)
      i = 0
      while (i < 1000) { c.mark(ledger, active, scratch); i += 1 }
      val bytes = threads.getThreadAllocatedBytes(self) - before
      assert(bytes < 1024, s"$c allocated $bytes bytes over 1000 calls")
    }
  }
}

object StopConditionMarkSpec {

  private val MaxSlots = 490

  /** One view slot's columns, as a [[ViewLedger]] would serve them. */
  private final case class View(m: Long, mean: Double, lo: Double, hi: Double, exact: Boolean) {
    def present: Boolean = !exact || m > 0
  }

  private final class ArrayTable(views: IndexedSeq[View]) extends ViewTable {
    def numViews: Int            = views.size
    def present(g: Int): Boolean = views(g).present
    def m(g: Int): Long          = views(g).m
    def mean(g: Int): Double     = views(g).mean
    def lo(g: Int): Double       = views(g).lo
    def hi(g: Int): Double       = views(g).hi
    def exact(g: Int): Boolean   = views(g).exact
  }
}
