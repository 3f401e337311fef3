package repro.fastframe

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Scramble construction and predicate compilation. */
class ScrambleAndPredicateSpec extends AnyFunSuite {

  /** Row bounds [start, end) of a block, as the engines compute them. */
  private implicit class BlockRows(scr: Scramble) {
    def blockRows(blk: Int): (Int, Int) =
      (blk * scr.blockSize, math.min(scr.numRows, (blk + 1) * scr.blockSize))
  }

  /** Does `row` pass `p`? `select` over the one-row selection. */
  private def passes(p: Predicate.Compiled)(row: Int): Boolean = p.select(Array(row), 1) == 1

  private def store(n: Int, seed: Long = 1L): ColumnStore = {
    val rng = new Random(seed)
    new ColumnStore(
      cats = Map(
        "g" -> CatColumn("g", Array.fill(n)(rng.nextInt(4)), Array("w", "x", "y", "z")),
        "h" -> CatColumn("h", Array.fill(n)(rng.nextInt(3)), Array("p", "q", "r"))),
      nums = Map(
        "v" -> NumColumn("v", Array.fill(n)(rng.nextDouble() * 10 - 5)),
        "t" -> NumColumn("t", Array.tabulate(n)(_.toDouble))))
  }

  test("scramble preserves the multiset of rows") {
    val base = store(500)
    val scr  = Scramble.fromStore(base, blockSize = 25, seed = 9L)
    assert(scr.numRows === 500)
    assert(scr.store.num("v").values.sorted.toSeq === base.num("v").values.sorted.toSeq)
    assert(scr.store.cat("g").codes.sorted.toSeq === base.cat("g").codes.sorted.toSeq)
  }

  test("scramble actually permutes (not identity) and is seed-deterministic") {
    val base = store(500)
    val s1 = Scramble.fromStore(base, 25, seed = 9L)
    val s2 = Scramble.fromStore(base, 25, seed = 9L)
    val s3 = Scramble.fromStore(base, 25, seed = 10L)
    assert(s1.store.num("t").values.toSeq === s2.store.num("t").values.toSeq)
    assert(s1.store.num("t").values.toSeq !== base.num("t").values.toSeq)
    assert(s1.store.num("t").values.toSeq !== s3.store.num("t").values.toSeq)
  }

  test("scramble rows keep column alignment") {
    val base = store(300)
    val scr  = Scramble.fromStore(base, 25, 9L)
    // 't' is the original row index; use it to check alignment.
    val t = scr.store.num("t").values
    for (i <- 0 until 300) {
      val orig = t(i).toInt
      assert(scr.store.cat("g").codes(i) === base.cat("g").codes(orig))
      assert(scr.store.num("v").values(i) === base.num("v").values(orig))
    }
  }

  test("catalog ranges are the column min/max") {
    val scr = Scramble.fromStore(store(200), 25, 9L)
    val (a, b) = scr.range("v")
    assert(a === scr.store.num("v").values.min)
    assert(b === scr.store.num("v").values.max)
    assertThrows[NoSuchElementException](scr.range("nope"))
  }

  test("block layout covers all rows exactly once") {
    val scr = Scramble.fromStore(store(103), 25, 9L)
    assert(scr.numBlocks === 5)
    val covered = (0 until scr.numBlocks).flatMap { blk =>
      val (s, e) = scr.blockRows(blk); s until e
    }
    assert(covered === (0 until 103))
  }

  test("bitmaps exist per categorical column") {
    val scr = Scramble.fromStore(store(100), 10, 9L)
    assert(scr.bitmap("g").numBlocks === scr.numBlocks)
    assert(scr.bitmap("h").cardinality === 3)
    assertThrows[NoSuchElementException](scr.bitmap("v"))
  }

  test("predicate True passes every row and prunes nothing") {
    val scr = Scramble.fromStore(store(100), 10, 9L)
    val p   = Predicate.compile(scr, Predicate.True)
    assert(!p.hasBlockPrunes)
    assert((0 until 100).forall(passes(p)))
  }

  test("CatEq predicate matches the reference filter") {
    val scr = Scramble.fromStore(store(400), 10, 9L)
    val p   = Predicate.compile(scr, Predicate.CatEq("g", "x"))
    val codes = scr.store.cat("g").codes
    for (row <- 0 until 400) assert(passes(p)(row) === (codes(row) == 1))
  }

  test("NumGt predicate matches the reference filter") {
    val scr = Scramble.fromStore(store(400), 10, 9L)
    val p   = Predicate.compile(scr, Predicate.NumGt("v", 0.0))
    val vals = scr.store.num("v").values
    for (row <- 0 until 400) assert(passes(p)(row) === (vals(row) > 0.0))
  }

  test("And predicate conjoins") {
    val scr = Scramble.fromStore(store(400), 10, 9L)
    val p = Predicate.compile(scr,
      Predicate.And(Seq(Predicate.CatEq("g", "x"), Predicate.NumGt("v", 0.0))))
    val codes = scr.store.cat("g").codes
    val vals  = scr.store.num("v").values
    for (row <- 0 until 400)
      assert(passes(p)(row) === (codes(row) == 1 && vals(row) > 0.0))
  }

  test("block pruning is sound: a pruned block contains no matching row") {
    val scr = Scramble.fromStore(store(997), 10, 9L)
    val p   = Predicate.compile(scr, Predicate.CatEq("g", "z"))
    assert(p.hasBlockPrunes)
    for (blk <- 0 until scr.numBlocks) {
      val (s, e) = scr.blockRows(blk)
      val hasMatch = (s until e).exists(passes(p))
      if (!p.blockMayMatch(blk)) assert(!hasMatch)
      if (hasMatch) assert(p.blockMayMatch(blk))
    }
  }

  test("unknown predicate columns are rejected at compile") {
    val scr = Scramble.fromStore(store(10), 10, 9L)
    assertThrows[NoSuchElementException](Predicate.compile(scr, Predicate.CatEq("nope", "x")))
    assertThrows[IllegalArgumentException](Predicate.compile(scr, Predicate.CatEq("g", "nope")))
  }
}
