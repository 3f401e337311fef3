package repro.fastframe

import org.scalatest.funsuite.AnyFunSuite
import java.util.concurrent.atomic.AtomicInteger

import repro.core.{Bounders, MomentBounder, MomentState}
import scala.util.Random

/** End-to-end engine behavior on a small synthetic store where exact
  * answers are computable by brute force.
  */
class EngineSpec extends AnyFunSuite {

  private val N = 20000

  /** 6 skewed groups; group means spread [0, 2, 4, 6, 8, -3]; occasional
    * mild outliers; numeric column t ~ U(0,100) for NumGt filters.
    */
  private lazy val scr: Scramble = {
    val rng    = new Random(123L)
    val gCodes = new Array[Int](N)
    val hCodes = new Array[Int](N)
    val v      = new Array[Double](N)
    val t      = new Array[Double](N)
    val gMeans = Array(0.0, 2.0, 4.0, 6.0, 8.0, -3.0)
    for (i <- 0 until N) {
      val u = rng.nextDouble()
      val g = if (u < 0.4) 0 else if (u < 0.7) 1 else if (u < 0.85) 2
              else if (u < 0.95) 3 else if (u < 0.99) 4 else 5
      gCodes(i) = g
      hCodes(i) = rng.nextInt(3)
      val outlier = if (rng.nextInt(2000) == 0) 40.0 else 0.0
      v(i) = gMeans(g) + rng.nextGaussian() + outlier
      t(i) = rng.nextDouble() * 100
    }
    val store = new ColumnStore(
      cats = Map(
        "g" -> CatColumn("g", gCodes, Array("g0", "g1", "g2", "g3", "g4", "g5")),
        "h" -> CatColumn("h", hCodes, Array("h0", "h1", "h2"))),
      nums = Map("v" -> NumColumn("v", v), "t" -> NumColumn("t", t)))
    Scramble.fromStore(store, blockSize = 25, seed = 5L)
  }

  /** Coverage check tolerant of float-order differences between the
    * engine's streaming Welford mean and the brute-force mean (matters for
    * exact groups, whose intervals are points).
    */
  private def covers(iv: repro.core.Interval, x: Double): Boolean =
    iv.lo <= x + 1e-9 * (1 + math.abs(x)) && x - 1e-9 * (1 + math.abs(x)) <= iv.hi

  private def cfg(bd: repro.core.MomentBounder, strat: Strategy = Strategy.ActivePeek) =
    EngineConfig(bounder = bd, delta = 1e-6, roundRows = 2000, strategy = strat)

  private def bruteMeans(groupBy: Seq[String], pass: Int => Boolean): Map[Seq[String], (Long, Double)] = {
    val cols  = groupBy.map(scr.store.cat)
    val v     = scr.store.num("v").values
    val accum = collection.mutable.Map.empty[Seq[String], (Long, Double)]
    for (i <- 0 until N if pass(i)) {
      val key = cols.map(c => c.dict(c.codes(i)))
      val (c0, s0) = accum.getOrElse(key, (0L, 0.0))
      accum(key) = (c0 + 1, s0 + v(i))
    }
    accum.map { case (k, (c, s)) => k -> (c, s / c) }.toMap
  }

  test("runExact matches brute-force group means and counts") {
    val q  = FrameQuery("exact", "v", Predicate.True, Seq("g"), StopCondition.DesiredSamples(1))
    val ex = Engine.runExact(scr, q)
    val ref = bruteMeans(Seq("g"), _ => true)
    assert(ex.results.size === ref.size)
    ex.results.foreach { r =>
      val (c, mu) = ref(r.key)
      assert(r.bounds.m === c)
      assert(math.abs(r.bounds.mean - mu) < 1e-9)
      assert(r.bounds.exact)
    }
  }

  test("runExact with filter matches brute force") {
    val q  = FrameQuery("exact-f", "v", Predicate.NumGt("t", 50.0), Seq("g"),
      StopCondition.DesiredSamples(1))
    val ex = Engine.runExact(scr, q)
    val tv  = scr.store.num("t").values
    val ref = bruteMeans(Seq("g"), i => tv(i) > 50.0)
    assert(ex.results.size === ref.size)
    ex.results.foreach { r =>
      val (c, mu) = ref(r.key)
      assert(r.bounds.m === c)
      assert(math.abs(r.bounds.mean - mu) < 1e-9)
    }
  }

  test("runExact prunes blocks for categorical filters without losing rows") {
    val q  = FrameQuery("exact-cat", "v", Predicate.CatEq("g", "g5"), Nil,
      StopCondition.DesiredSamples(1))
    val ex = Engine.runExact(scr, q)
    val ref = bruteMeans(Nil, i => scr.store.cat("g").codes(i) == 5)
    assert(ex.results.size === 1)
    assert(ex.results.head.bounds.m === ref(Seq.empty)._1)
    assert(ex.metrics.blocksFetched < scr.numBlocks) // sparse group g5 (~1%) prunes
  }

  for (bd <- Bounders.all) {
    test(s"[${bd.name}] threshold query gives the correct HAVING sets with coverage") {
      val q   = FrameQuery("thr", "v", Predicate.True, Seq("g"), StopCondition.ThresholdSide(1.0))
      val run = Engine.run(scr, q, cfg(bd))
      val ex  = Engine.runExact(scr, q)
      assert(run.groupsAbove(1.0) === ex.groupsAbove(1.0))
      assert(run.groupsBelow(1.0) === ex.groupsBelow(1.0))
      val ref = bruteMeans(Seq("g"), _ => true)
      run.results.foreach { r =>
        assert(covers(r.bounds.iv, ref(r.key)._2), s"${r.key}: ${r.bounds.iv} vs ${ref(r.key)._2}")
      }
      assert(run.metrics.blocksFetched <= scr.numBlocks)
      assert(run.metrics.rounds >= 1)
    }

    test(s"[${bd.name}] top-1 query identifies the correct group") {
      val q   = FrameQuery("top1", "v", Predicate.True, Seq("g"), StopCondition.TopKSeparated(1, largest = true))
      val run = Engine.run(scr, q, cfg(bd))
      val ex  = Engine.runExact(scr, q)
      assert(run.topK(1, largest = true) === ex.topK(1, largest = true))
    }
  }

  for (strat <- Seq(Strategy.Scan, Strategy.ActiveSync, Strategy.ActivePeek)) {
    test(s"[$strat] grouped ordering query is correct") {
      val q   = FrameQuery("ord", "v", Predicate.True, Seq("g"), StopCondition.GroupsOrdered)
      val run = Engine.run(scr, q, cfg(Bounders.BernsteinRT, strat))
      val ex  = Engine.runExact(scr, q)
      assert(run.ordering === ex.ordering)
    }

    test(s"[$strat] filtered bottom-2 query is correct") {
      val q = FrameQuery("b2", "v", Predicate.NumGt("t", 30.0), Seq("g"),
        StopCondition.TopKSeparated(2, largest = false))
      val run = Engine.run(scr, q, cfg(Bounders.BernsteinRT, strat))
      val ex  = Engine.runExact(scr, q)
      assert(run.topK(2, largest = false).toSet === ex.topK(2, largest = false).toSet)
    }
  }

  test("multi-column group-by matches brute force under approximation") {
    val q = FrameQuery("multi", "v", Predicate.True, Seq("g", "h"),
      StopCondition.TopKSeparated(3, largest = true))
    val run = Engine.run(scr, q, cfg(Bounders.BernsteinRT))
    val ref = bruteMeans(Seq("g", "h"), _ => true)
    run.results.foreach { r =>
      assert(covers(r.bounds.iv, ref(r.key)._2))
    }
    val ex = Engine.runExact(scr, q)
    assert(run.topK(3, largest = true).toSet === ex.topK(3, largest = true).toSet)
  }

  test("relative-accuracy single-view query covers the exact mean") {
    val q   = FrameQuery("rel", "v", Predicate.CatEq("g", "g3"), Nil, StopCondition.RelativeWidth(0.5))
    val run = Engine.run(scr, q, cfg(Bounders.BernsteinRT))
    val ref = bruteMeans(Nil, i => scr.store.cat("g").codes(i) == 3)
    assert(run.results.size === 1)
    assert(covers(run.results.head.bounds.iv, ref(Seq.empty)._2))
  }

  test("active scanning fetches fewer blocks than Scan on a sparse-group query") {
    // Threshold far from every mean except sparse g5's: dense groups
    // deactivate quickly, after which only g5-bearing blocks matter.
    val q = FrameQuery("sparse", "v", Predicate.True, Seq("g"), StopCondition.ThresholdSide(-1.0))
    val scan = Engine.run(scr, q, cfg(Bounders.BernsteinRT, Strategy.Scan))
    val peek = Engine.run(scr, q, cfg(Bounders.BernsteinRT, Strategy.ActivePeek))
    val ex   = Engine.runExact(scr, q)
    assert(peek.groupsBelow(-1.0) === ex.groupsBelow(-1.0))
    assert(peek.metrics.blocksFetched <= scan.metrics.blocksFetched)
  }

  test("engine is deterministic for a fixed configuration") {
    val q  = FrameQuery("det", "v", Predicate.True, Seq("g"), StopCondition.ThresholdSide(1.0))
    val r1 = Engine.run(scr, q, cfg(Bounders.BernsteinRT))
    val r2 = Engine.run(scr, q, cfg(Bounders.BernsteinRT))
    assert(r1.metrics.blocksFetched === r2.metrics.blocksFetched)
    assert(r1.metrics.rowsProcessed === r2.metrics.rowsProcessed)
    assert(r1.results.map(_.bounds.iv) === r2.results.map(_.bounds.iv))
  }

  test("start position does not affect correctness") {
    val q  = FrameQuery("start", "v", Predicate.True, Seq("g"), StopCondition.ThresholdSide(1.0))
    val ex = Engine.runExact(scr, q)
    for (start <- Seq(0, 117, scr.numBlocks - 1)) {
      val run = Engine.run(scr, q, cfg(Bounders.BernsteinRT).copy(startBlock = start))
      assert(run.groupsAbove(1.0) === ex.groupsAbove(1.0))
    }
  }

  test("desired-samples stopping collects at least the requested samples per group") {
    val q   = FrameQuery("m", "v", Predicate.True, Seq("g"), StopCondition.DesiredSamples(200))
    val run = Engine.run(scr, q, cfg(Bounders.Hoeffding))
    run.results.foreach(r => assert(r.bounds.m >= 200 || r.bounds.exact))
  }

  test("metrics are internally consistent") {
    val q   = FrameQuery("metrics", "v", Predicate.True, Seq("g"), StopCondition.ThresholdSide(1.0))
    val run = Engine.run(scr, q, cfg(Bounders.Bernstein))
    assert(run.metrics.blocksFetched <= scr.numBlocks)
    assert(run.metrics.rowsProcessed <= scr.numRows)
    assert(run.metrics.wallNanos > 0)
    assert(run.metrics.rowsProcessed >= run.metrics.blocksFetched) // >= 1 row per block
  }

  test("ungrouped unfiltered query reduces to a single exactable view") {
    val q   = FrameQuery("all", "v", Predicate.True, Nil, StopCondition.AbsoluteWidth(0.2))
    val run = Engine.run(scr, q, cfg(Bounders.BernsteinRT))
    val ref = bruteMeans(Nil, _ => true)(Seq.empty)._2
    assert(run.results.size === 1)
    assert(covers(run.results.head.bounds.iv, ref))
    assert(run.results.head.bounds.iv.width < 0.2 || run.results.head.bounds.exact)
  }

  test("Exact's one-round Scan pass never calls the bounder and makes every view exact") {
    val calls = new AtomicInteger
    val counting = new MomentBounder {
      val name = "counting"
      def lbound(s: MomentState, a: Double, b: Double, n: Long, d: Double): Double = { calls.incrementAndGet(); a }
      def rbound(s: MomentState, a: Double, b: Double, n: Long, d: Double): Double = { calls.incrementAndGet(); b }
    }
    val queries = Seq(
      FrameQuery("grouped", "v", Predicate.True, Seq("g"), StopCondition.ThresholdSide(1.0)),
      FrameQuery("filtered", "v", Predicate.NumGt("t", 30.0), Seq("g", "h"), StopCondition.GroupsOrdered),
      FrameQuery("pruned", "v", Predicate.CatEq("g", "g5"), Nil, StopCondition.AbsoluteWidth(0.2)))
    for (q <- queries; start <- Seq(0, 117)) {
      val run = Engine.run(scr, q, Engine.exactConfig(start).copy(bounder = counting))
      assert(run.metrics.rounds === 1)
      assert(run.results.nonEmpty)
      run.results.foreach { r =>
        assert(r.bounds.exact, s"${q.name} ${r.key}")
        assert(r.bounds.iv.lo === r.bounds.mean && r.bounds.iv.hi === r.bounds.mean, s"${q.name} ${r.key}")
      }
    }
    assert(calls.get === 0)
  }

  test("empty inputs give empty answers under every strategy and Exact") {
    // Dictionary value "unseen" has no row.
    def store(n: Int) = new ColumnStore(
      cats = Map("g" -> CatColumn("g", Array.tabulate(n)(_ % 2), Array("g0", "g1", "unseen"))),
      nums = Map(
        "v" -> NumColumn("v", Array.tabulate(n)(i => (i % 7).toDouble)),
        "t" -> NumColumn("t", Array.tabulate(n)(i => (i % 100).toDouble))))
    val full  = Scramble.fromStore(store(1000), blockSize = 25, seed = 2L)
    val empty = Scramble.fromStore(store(0), blockSize = 25, seed = 2L)
    val cases = Seq(
      empty -> FrameQuery("empty store", "v", Predicate.True, Seq("g"), StopCondition.GroupsOrdered),
      full  -> FrameQuery("no row passes", "v", Predicate.NumGt("t", 99.0), Seq("g"), StopCondition.ThresholdSide(3.0)),
      full  -> FrameQuery("absent value", "v", Predicate.CatEq("g", "unseen"), Nil, StopCondition.AbsoluteWidth(0.5)))
    for ((s, q) <- cases) {
      val runs = Engine.runExact(s, q) +:
        Seq(Strategy.Scan, Strategy.ActiveSync, Strategy.ActivePeek).map(st => Engine.run(s, q, cfg(Bounders.BernsteinRT, st)))
      runs.foreach(r => assert(r.results.isEmpty, q.name))
      // No block holds the absent value, so the filter bitmap prunes them all.
      if (q.name == "absent value") runs.foreach(r => assert(r.metrics.blocksFetched === 0, q.name))
    }
  }

  /** 2 600 blocks of 25 rows, so ActivePeek's last lookahead batch is
    * partial (552 blocks). Column d's code 0 is in every block (7 rows in
    * 10); column s is background code 0 plus three codes in about 1 row in
    * 200 each, whose blocks never cover the relation.
    */
  private lazy val wide: Scramble = {
    val n      = 2600 * 25
    val rng    = new Random(77L)
    val dCodes = Array.fill(n)(if (rng.nextDouble() < 0.7) 0 else 1 + rng.nextInt(3))
    val sCodes = Array.fill(n)(if (rng.nextDouble() < 0.985) 0 else 1 + rng.nextInt(3))
    val sMeans = Array(-4.0, 3.0, 3.5, 6.0)
    val v      = Array.tabulate(n)(i => dCodes(i) + sMeans(sCodes(i)) + rng.nextGaussian())
    val store  = new ColumnStore(
      cats = Map(
        "d" -> CatColumn("d", dCodes, Array("d0", "d1", "d2", "d3")),
        "s" -> CatColumn("s", sCodes, Array("s0", "s1", "s2", "s3"))),
      nums = Map("v" -> NumColumn("v", v)))
    Scramble.fromStore(store, blockSize = 25, seed = 9L)
  }

  /** Start blocks: the first, mid-batch, and in the last word of the partial batch. */
  private val wideStarts = Seq(0, 1500, 2590)

  private def outcome(r: QueryRun) = (
    r.results.map { x =>
      val b = x.bounds
      (x.key, b.gid, b.m, b.exact, java.lang.Double.doubleToRawLongBits(b.mean),
        java.lang.Double.doubleToRawLongBits(b.iv.lo), java.lang.Double.doubleToRawLongBits(b.iv.hi))
    },
    r.metrics.blocksFetched, r.metrics.rowsProcessed, r.metrics.rounds)

  test("ActivePeek's saturating mask fetches ActiveSync's blocks, with identical answers") {
    assert(wide.numBlocks === 2600)
    val queries = Seq(
      FrameQuery("dense-all", "v", Predicate.True, Seq("d"), StopCondition.DesiredSamples(Long.MaxValue)),
      FrameQuery("dense-thr", "v", Predicate.True, Seq("d"), StopCondition.ThresholdSide(1.5)),
      FrameQuery("dense-top", "v", Predicate.True, Seq("d"), StopCondition.TopKSeparated(1, largest = false)),
      FrameQuery("sparse-thr", "v", Predicate.True, Seq("s"), StopCondition.ThresholdSide(4.0)),
      FrameQuery("both", "v", Predicate.True, Seq("d", "s"), StopCondition.ThresholdSide(4.0)))
    for (q <- queries; start <- wideStarts) {
      def go(st: Strategy) = Engine.run(wide, q, cfg(Bounders.BernsteinRT, st).copy(startBlock = start))
      val peek = go(Strategy.ActivePeek)
      assert(outcome(peek) === outcome(go(Strategy.ActiveSync)), s"${q.name} from $start")
      if (q.name == "sparse-thr")
        assert(peek.metrics.blocksFetched < wide.numBlocks, s"${q.name} from $start: the rare codes' mask skips blocks")
    }
  }

  test("ActivePeek's mask stops at the first group once it holds every block, in the partial batch too") {
    val d = wide.bitmap("d")
    assert((0 until wide.numBlocks).forall(d.contains(0, _)), "d0 must be in every block")
    val numBatches = (wide.numBlocks + Engine.LookaheadBlocks - 1) / Engine.LookaheadBlocks
    // Words holding blocks: 16 per full batch, 9 in the partial one.
    def words(batch: Int) = (math.min(Engine.LookaheadBlocks, wide.numBlocks - batch * Engine.LookaheadBlocks) + 63) / 64
    assert((0 until numBatches).map(words) === Seq(16, 16, 9))
    // Every view stays active for the whole pass, so the mask is built once
    // per batch entered: each batch, and the start batch again on wrapping.
    val q = FrameQuery("dense-all", "v", Predicate.True, Seq("d"), StopCondition.DesiredSamples(Long.MaxValue))
    for (start <- wideStarts) {
      val run        = Engine.run(wide, q, cfg(Bounders.BernsteinRT, Strategy.ActivePeek).copy(startBlock = start))
      val startBatch = start / Engine.LookaheadBlocks
      val built      = (0 until numBatches) ++ (if (start % Engine.LookaheadBlocks == 0) Nil else Seq(startBatch))
      assert(run.metrics.blocksFetched === wide.numBlocks)
      // One view's words per build, where all 4 active views' would be ANDed
      // without saturation: every build, the partial batch's too, stops after d0.
      assert(run.metrics.bitmapProbes === built.map(words).sum.toLong, s"from $start")
    }
  }

  test("a group domain past the cap is rejected, not wrapped") {
    // 65 536 × 65 536 groups: the Int product wraps to 0.
    val dict  = Array.tabulate(65536)(i => s"k$i")
    val rows  = 50
    val store = new ColumnStore(
      cats = Map(
        "x" -> CatColumn("x", Array.tabulate(rows)(i => i), dict),
        "y" -> CatColumn("y", Array.tabulate(rows)(i => 2 * i), dict)),
      nums = Map("v" -> NumColumn("v", Array.tabulate(rows)(_.toDouble))))
    val wide = Scramble.fromStore(store, blockSize = 25, seed = 1L)
    val q    = FrameQuery("wide", "v", Predicate.True, Seq("x", "y"), StopCondition.ThresholdSide(1.0))
    assertThrows[IllegalArgumentException](Engine.run(wide, q, cfg(Bounders.BernsteinRT)))
    assertThrows[IllegalArgumentException](Engine.runExact(wide, q))
  }
}
