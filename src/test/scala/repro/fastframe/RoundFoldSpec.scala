package repro.fastframe

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Bounders
import scala.jdk.CollectionConverters._
import scala.util.Random

/** The within-round parallel fold: its results do not depend on the
  * number of fold threads, on their schedule or on concurrent callers,
  * and its helper threads are few, named and daemon.
  */
class RoundFoldSpec extends AnyFunSuite {

  private val N = 40000

  /** 6 × 3 groups with distinct means, a numeric filter column t. */
  private lazy val scr: Scramble = {
    val rng = new Random(77L)
    val g   = Array.fill(N)(rng.nextInt(6))
    val h   = Array.fill(N)(rng.nextInt(3))
    val v   = Array.tabulate(N)(i => 2.0 * g(i) + h(i) + rng.nextGaussian() + (if (rng.nextInt(3000) == 0) 30.0 else 0.0))
    val t   = Array.fill(N)(rng.nextDouble() * 100)
    val store = new ColumnStore(
      cats = Map(
        "g" -> CatColumn("g", g, Array.tabulate(6)(i => s"g$i")),
        "h" -> CatColumn("h", h, Array.tabulate(3)(i => s"h$i"))),
      nums = Map("v" -> NumColumn("v", v), "t" -> NumColumn("t", t)))
    Scramble.fromStore(store, blockSize = 25, seed = 3L)
  }

  private val queries = Seq(
    FrameQuery("thr", "v", Predicate.True, Seq("g"), StopCondition.ThresholdSide(5.0)),
    FrameQuery("top", "v", Predicate.NumGt("t", 20.0), Seq("g", "h"), StopCondition.TopKSeparated(3, largest = true)),
    FrameQuery("ord", "v", Predicate.CatEq("h", "h1"), Seq("g"), StopCondition.GroupsOrdered),
    FrameQuery("all", "v", Predicate.True, Nil, StopCondition.AbsoluteWidth(0.01)))

  // 400 blocks per round: every full round folds in RoundFold.Slices slices.
  private val configs = for {
    st <- Seq(Strategy.ActivePeek, Strategy.ActiveSync, Strategy.Scan)
    d  <- Seq(1e-15, 1e-2)
  } yield EngineConfig(bounder = Bounders.BernsteinRT, delta = d, roundRows = 10000, strategy = st, startBlock = 311)

  /** Everything a run returns but its wall time, with doubles as raw bits. */
  private def bits(r: QueryRun) = {
    val m = r.metrics
    (r.results.map { gr =>
      val b = gr.bounds
      (gr.key, b.gid, b.m, b.exact,
        Seq(b.mean, b.iv.lo, b.iv.hi).map(java.lang.Double.doubleToRawLongBits))
    }, (m.blocksFetched, m.rowsProcessed, m.rounds, m.bitmapProbes, m.crossedViews))
  }

  private def withPool[A](helpers: Int)(f: FoldPool => A): A = {
    val pool = new FoldPool(helpers)
    try f(pool) finally pool.close()
  }

  test("a round list folds in up to four slices") {
    assert(RoundFold.Slices === 4)
    assert(10000 / scr.blockSize >= RoundFold.Slices * RoundFold.MinSliceBlocks)
  }

  test("0 and 3 fold helpers give bit-identical runs and exact answers") {
    val (seq, par) = withPool(0) { p0 =>
      withPool(3) { p3 =>
        val runs = for (q <- queries; c <- configs) yield
          (bits(Engine.run(scr, q, c, p0)), bits(Engine.run(scr, q, c, p3)))
        val exact = for (q <- queries; sb <- Seq(0, 977)) yield
          (bits(Engine.run(scr, q, Engine.exactConfig(sb), p0)), bits(Engine.run(scr, q, Engine.exactConfig(sb), p3)))
        (runs ++ exact).unzip
      }
    }
    assert(par === seq)
  }

  test("two threads running Engine.run at once return the sequential answers") {
    val expected = for (q <- queries; c <- configs) yield bits(Engine.run(scr, q, c))
    val got      = Array.fill(2)(Seq.empty[Any])
    val errors   = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]()
    val threads  = Array.tabulate(2) { i =>
      new Thread(() =>
        try got(i) = (1 to 3).flatMap(_ => for (q <- queries; c <- configs) yield bits(Engine.run(scr, q, c)))
        catch { case t: Throwable => errors.add(t) })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    assert(errors.isEmpty, errors.asScala.mkString("; "))
    for (i <- 0 to 1) assert(got(i) === Seq.fill(3)(expected).flatten)
  }

  test("fold helpers are few, named and daemon") {
    Engine.run(scr, queries.head, configs.head)
    // A helper is any thread running FoldPool's code, whatever its name.
    val helpers = Thread.getAllStackTraces.asScala.collect {
      case (t, stack) if stack.exists(_.getClassName == classOf[FoldPool].getName) => t
    }
    val nproc = Runtime.getRuntime.availableProcessors
    assert(helpers.forall(_.getName.startsWith(FoldPool.ThreadPrefix)), helpers.map(_.getName))
    assert(helpers.forall(_.isDaemon))
    assert(helpers.size <= math.min(3, nproc - 1))
    if (nproc > 1) assert(helpers.nonEmpty)
  }
}
