package repro.fastframe

import java.lang.management.ManagementFactory

import org.scalacheck.Gen
import org.scalatest.funsuite.AnyFunSuite
import repro.PropertyChecks
import repro.core.Bounders
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.util.Random

/** The within-round parallel fold: its staged kernel gives the bits of a
  * row-at-a-time loop and allocates nothing once warm, its results do not
  * depend on the number of fold threads, on their schedule or on
  * concurrent callers, and its helper threads are few, named and daemon.
  */
class RoundFoldSpec extends AnyFunSuite with PropertyChecks {
  import RoundFoldSpec._

  override protected def propertyTrials: Int = 400

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

  test("select keeps the passing rows in order, for k = 0, all passing and none passing") {
    val t  = scr.store.num("t").values
    val ts = Predicate.compile(scr, Predicate.NumGt("t", 50.0))
    val rows = Array(3, 17, 18, 40, 41, 977, 5000, 39999, -1, -1) // -1: past k
    val sel  = rows.clone()
    val k    = ts.select(sel, 8)
    assert(sel.take(k).toSeq === rows.take(8).filter(t(_) > 50.0).toSeq)
    assert(k > 0 && k < 8)
    for (p <- Seq(Predicate.True, Predicate.NumGt("t", -1.0), Predicate.CatEq("g", "g0"),
                  Predicate.NumGt("t", 100.0))) {
      val c = Predicate.compile(scr, p)
      val z = rows.clone()
      assert(c.select(z, 0) === 0)
      assert(z.toSeq === rows.toSeq)
    }
    val all = rows.clone()
    assert(Predicate.compile(scr, Predicate.NumGt("t", -1.0)).select(all, 8) === 8)
    assert(all.toSeq === rows.toSeq)
    assert(Predicate.compile(scr, Predicate.True).select(all, 8) === 8)
    assert(all.toSeq === rows.toSeq)
    assert(Predicate.compile(scr, Predicate.NumGt("t", 100.0)).select(rows.clone(), 8) === 0)
  }

  test("gidsInto writes the mixed-radix code of 0, 1 and 2 group columns") {
    val g   = scr.store.cat("g").codes
    val h   = scr.store.cat("h").codes
    val sel = Array.tabulate(500)(i => (i * 79) % N)
    for ((cols, want) <- Seq[(Seq[String], Int => Int)](
           Nil             -> (_ => 0),
           Seq("h")        -> (r => h(r)),
           Seq("g", "h")   -> (r => 3 * g(r) + h(r)),
           Seq("h", "g")   -> (r => 6 * h(r) + g(r)))) {
      val codec = new GroupCodec(scr, cols)
      val out   = Array.fill(sel.length + 1)(-7)
      codec.gidsInto(sel, sel.length, out)
      assert(out.toSeq === sel.toSeq.map(want) :+ -7, cols)
      val codes = new Array[Int](cols.size)
      for (j <- sel.indices) {
        codec.codesInto(out(j), codes, 0)
        assert(codes.toSeq === cols.map(c => scr.store.cat(c).codes(sel(j))))
      }
    }
  }

  test("the staged fold gives every partial moment slot the bits of a row-at-a-time loop") {
    val seen = mutable.Set.empty[String]
    forAll(Gen.choose(0L, Long.MaxValue).map(FoldCase.draw)) { c =>
      val scr    = c.scramble
      val values = scr.store.num("v").values
      val codec  = new GroupCodec(scr, c.groupBy)
      val fold   = new RoundFold(scr, Predicate.compile(scr, c.filter), codec, values, c.active,
        math.max(1, c.blocks.length))
      c.blocks.foreach(fold.add)
      val staged = ViewLedger.emptyMoments(codec.numGroups)
      val oracle = ViewLedger.emptyMoments(codec.numGroups)
      fold.foldBlocks(staged, c.from, c.to)
      rowAtATime(scr, c.filter, c.groupBy, values, c.active, c.blocks, c.from, c.to, oracle)
      assert(staged.map(java.lang.Double.doubleToRawLongBits).toSeq ===
        oracle.map(java.lang.Double.doubleToRawLongBits).toSeq, c)
      seen ++= c.shapes(oracle)
    }
    val needed = Set("0 conjuncts", "1 conjuncts", "2 conjuncts", "3 conjuncts", "CatEq and NumGt",
      "matches nothing", "filter on a group column", "0 group columns", "1 group columns",
      "2 group columns", "no view active", "every view active", "some views active",
      "partial last block", "partial last batch", "several batches", "non-contiguous blocks",
      "sub-range of the list", "rows folded")
    assert(needed.diff(seen).isEmpty, s"cases the generator never drew: ${needed.diff(seen)}")
  }

  test("1000 warm foldInto calls allocate under 1 KB on the calling thread") {
    val threads = ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]
    val self    = Thread.currentThread().getId
    val q       = queries(1) // a filter and two group columns
    val codec   = new GroupCodec(scr, q.groupBy)
    val ledger  = new ViewLedger(codec.numGroups, Bounders.BernsteinRT, -10.0, 50.0, 1e-15, N)
    val views   = Array.range(0, codec.numGroups)
    val fold    = new RoundFold(scr, Predicate.compile(scr, q.filter), codec, scr.store.num("v").values,
      ledger.activeFlags, scr.numBlocks)
    // 400 blocks fold in four slices on the calling thread; 100 in one slice on the shared pool.
    for ((pool, listed) <- Seq((new FoldPool(0), 400), (FoldPool.shared, 100))) {
      def calls(n: Int): Unit = {
        var i = 0
        while (i < n) {
          var b = 0
          while (b < listed) { fold.add((7 * i + 3 * b) % scr.numBlocks); b += 1 }
          fold.foldInto(ledger, views, views.length, pool)
          i += 1
        }
      }
      calls(3000)
      val before = threads.getThreadAllocatedBytes(self)
      calls(1000)
      val bytes = threads.getThreadAllocatedBytes(self) - before
      assert(bytes < 1024, s"$listed blocks per call allocated $bytes bytes over 1000 calls")
    }
  }
}

object RoundFoldSpec {

  private def conjuncts(p: Predicate): Seq[Predicate] = p match {
    case Predicate.And(ps) => ps.flatMap(conjuncts)
    case Predicate.True    => Nil
    case other             => Seq(other)
  }

  /** The row-at-a-time loop the staged kernel replaced, as the oracle:
    * fold each row of listed blocks `from` until `to` that passes the
    * filter and belongs to an active view into `part`.
    */
  private def rowAtATime(scr: Scramble, filter: Predicate, groupBy: Seq[String], values: Array[Double],
      active: Array[Boolean], blocks: Array[Int], from: Int, to: Int, part: Array[Double]): Unit = {
    val tests: Seq[Int => Boolean] = conjuncts(filter).map {
      case Predicate.CatEq(col, value) =>
        val codes = scr.store.cat(col).codes
        val code  = scr.store.cat(col).codeOf(value)
        (row: Int) => codes(row) == code
      case Predicate.NumGt(col, t) =>
        val vs = scr.store.num(col).values
        (row: Int) => vs(row) > t
      case other => sys.error(s"not a conjunct: $other")
    }
    val cols = groupBy.map(scr.store.cat)
    for (i <- from until to; row <- blocks(i) * scr.blockSize until math.min(scr.numRows, (blocks(i) + 1) * scr.blockSize)) {
      if (tests.forall(_(row))) {
        val g = cols.foldLeft(0)((id, c) => id * c.cardinality + c.codes(row))
        if (active(g)) ViewLedger.fold(part, g, values(row))
      }
    }
  }

  /** One random kernel input: a small relation, a filter, group columns,
    * an active set and a walk-ordered list of blocks with a range of it.
    */
  private final case class FoldCase(
      scramble: Scramble,
      filter: Predicate,
      groupBy: Seq[String],
      active: Array[Boolean],
      blocks: Array[Int],
      from: Int,
      to: Int) {

    override def toString: String =
      s"FoldCase(rows=${scramble.numRows}, blockSize=${scramble.blockSize}, $filter, $groupBy, " +
        s"active=${active.count(identity)}/${active.length}, blocks=${blocks.toSeq}, from=$from, to=$to)"

    /** The shapes this case covers, given the oracle's partial moments. */
    def shapes(oracle: Array[Double]): Seq[String] = {
      val cs     = conjuncts(filter)
      val n      = to - from
      val listed = blocks.slice(from, to)
      val folded = oracle.indices.by(5).map(oracle(_)).sum
      Seq(
        Some(s"${cs.size} conjuncts"),
        Some(s"${groupBy.size} group columns"),
        Option.when(cs.exists(_.isInstanceOf[Predicate.CatEq]) && cs.exists(_.isInstanceOf[Predicate.NumGt]))(
          "CatEq and NumGt"),
        Option.when(cs.exists { case Predicate.NumGt(_, t) => t >= 1.0; case _ => false })("matches nothing"),
        Option.when(cs.exists { case Predicate.CatEq(c, _) => groupBy.contains(c); case _ => false })(
          "filter on a group column"),
        Some(if (active.forall(identity)) "every view active" else if (active.exists(identity)) "some views active"
             else "no view active"),
        Option.when(scramble.numRows % scramble.blockSize != 0 && listed.contains(scramble.numBlocks - 1))(
          "partial last block"),
        Option.when(n > RoundFold.BatchBlocks)("several batches"),
        Option.when(n > RoundFold.BatchBlocks && n % RoundFold.BatchBlocks != 0)("partial last batch"),
        Option.when(listed.sliding(2).exists(p => p.length == 2 && p(1) != p(0) + 1))("non-contiguous blocks"),
        Option.when(n < blocks.length)("sub-range of the list"),
        Option.when(folded > 0)("rows folded")).flatten
    }
  }

  private object FoldCase {
    private val Cards = Seq("c0" -> 5, "c1" -> 4, "c2" -> 2)

    def draw(seed: Long): FoldCase = {
      val rng = new Random(seed)
      val n   = 1 + rng.nextInt(1500)
      val bs  = Seq(1, 3, 7, 25, 41)(rng.nextInt(5))
      val store = new ColumnStore(
        cats = Cards.map { case (c, k) =>
          c -> CatColumn(c, Array.fill(n)(rng.nextInt(k)), Array.tabulate(k)(i => s"$c-$i"))
        }.toMap,
        nums = Map(
          "v" -> NumColumn("v", Array.fill(n)(if (rng.nextInt(8) == 0) -0.0 else rng.nextGaussian() * 10)),
          "t" -> NumColumn("t", Array.fill(n)(rng.nextDouble()))))
      val scr = Scramble.fromStore(store, bs, rng.nextLong())
      val cs = Seq.fill(rng.nextInt(4)) {
        if (rng.nextBoolean()) {
          val (c, k) = Cards(rng.nextInt(Cards.size))
          Predicate.CatEq(c, s"$c-${rng.nextInt(k)}")
        } else Predicate.NumGt("t", Seq(-1.0, 0.2, 0.5, 0.9, 1.0)(rng.nextInt(5)))
      }
      val filter  = cs match { case Seq() => Predicate.True; case Seq(p) => p; case _ => Predicate.And(cs) }
      val groupBy = rng.shuffle(Cards.map(_._1)).take(rng.nextInt(3))
      val numGroups = groupBy.map(c => Cards.toMap.apply(c)).product
      val pActive   = Seq(0.0, 1.0, 0.2, 0.7)(rng.nextInt(4))
      val active    = Array.fill(numGroups)(rng.nextDouble() < pActive)
      // The walk from a start block, keeping each block with probability pKeep.
      val pKeep = Seq(1.0, 0.9, 0.4)(rng.nextInt(3))
      val start = rng.nextInt(scr.numBlocks)
      val blocks = (0 until scr.numBlocks).map(i => (start + i) % scr.numBlocks)
        .filter(_ => rng.nextDouble() < pKeep).toArray
      val (from, to) =
        if (blocks.isEmpty || rng.nextBoolean()) (0, blocks.length)
        else {
          val f = rng.nextInt(blocks.length)
          (f, f + 1 + rng.nextInt(blocks.length - f))
        }
      FoldCase(scr, filter, groupBy, active, blocks, from, to)
    }
  }
}
