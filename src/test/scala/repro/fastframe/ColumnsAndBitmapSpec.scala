package repro.fastframe

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropertyChecks
import scala.util.Random

/** Column store, permutation, and block bitmap correctness. */
class ColumnsAndBitmapSpec extends AnyFunSuite with PropertyChecks {

  private def store(n: Int, seed: Long = 1L): ColumnStore = {
    val rng = new Random(seed)
    new ColumnStore(
      cats = Map("g" -> CatColumn("g", Array.fill(n)(rng.nextInt(4)), Array("w", "x", "y", "z"))),
      nums = Map("v" -> NumColumn("v", Array.fill(n)(rng.nextDouble() * 10 - 5))))
  }

  test("store validates column lengths") {
    assertThrows[IllegalArgumentException] {
      new ColumnStore(
        cats = Map("g" -> CatColumn("g", Array(0, 1), Array("a", "b"))),
        nums = Map("v" -> NumColumn("v", Array(1.0))))
    }
  }

  test("store requires at least one column") {
    assertThrows[IllegalArgumentException](new ColumnStore(Map.empty, Map.empty))
  }

  test("cat column rejects out-of-dict codes") {
    assertThrows[IllegalArgumentException](CatColumn("g", Array(0, 5), Array("a", "b")))
    val e = intercept[IllegalArgumentException](CatColumn("Origin", Array(0, 1, -1), Array("a", "b")))
    assert(e.getMessage.contains("Origin") && e.getMessage.contains("row 2"), e.getMessage)
  }

  test("codeOf resolves dictionary values and rejects unknowns") {
    val c = CatColumn("g", Array(0, 1), Array("a", "b"))
    assert(c.codeOf("b") === 1)
    assertThrows[IllegalArgumentException](c.codeOf("nope"))
  }

  test("missing columns raise NoSuchElementException") {
    val s = store(10)
    assertThrows[NoSuchElementException](s.cat("nope"))
    assertThrows[NoSuchElementException](s.num("nope"))
  }

  test("permuted store rearranges rows consistently across columns") {
    val s    = store(100)
    val perm = new Random(2L).shuffle((0 until 100).toVector).toArray
    val p    = s.permuted(perm)
    for (i <- 0 until 100) {
      assert(p.cat("g").codes(i) === s.cat("g").codes(perm(i)))
      assert(p.num("v").values(i) === s.num("v").values(perm(i)))
    }
  }

  test("numeric column rejects NaN and infinite values, naming the column") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val e = intercept[IllegalArgumentException](NumColumn("delay", Array(1.0, bad, 2.0)))
      assert(e.getMessage.contains("delay"), e.getMessage)
      assert(e.getMessage.contains("row 1"), e.getMessage)
    }
  }

  test("numeric column min/max") {
    val c = NumColumn("v", Array(3.0, -1.0, 2.0))
    assert(c.min === -1.0)
    assert(c.max === 3.0)
    // Bit for bit the collection min/max, which order -0.0 below 0.0.
    val bits = java.lang.Double.doubleToRawLongBits _
    forAll(Gen.nonEmptyListOf(Gen.oneOf(Gen.const(0.0), Gen.const(-0.0), Gen.chooseNum(-5.0, 5.0)))) {
      vs =>
        val c = NumColumn("v", vs.toArray)
        assert(bits(c.min) === bits(vs.min) && bits(c.max) === bits(vs.max), vs)
    }
  }

  test("bitmap bit set iff block contains the value (property)") {
    forAll(Gen.chooseNum(1, 500), Gen.chooseNum(1, 13), Gen.chooseNum(0L, 1000L)) {
      (n, blockSize, seed) =>
        val rng   = new Random(seed)
        val codes = Array.fill(n)(rng.nextInt(5))
        val bm    = BlockBitmap.build(codes, 5, blockSize)
        val numBlocks = (n + blockSize - 1) / blockSize
        assert(bm.numBlocks === numBlocks)
        for (blk <- 0 until numBlocks; v <- 0 until 5) {
          val expect = (blk * blockSize until math.min(n, (blk + 1) * blockSize))
            .exists(codes(_) == v)
          assert(bm.contains(v, blk) === expect, s"v=$v blk=$blk")
        }
    }
  }

  test("andInto on an all-ones input agrees with per-block contains") {
    val rng   = new Random(3L)
    val codes = Array.fill(2000)(rng.nextInt(3))
    val bm    = BlockBitmap.build(codes, 3, 7)
    val len   = 128
    val out   = Array.fill(len >>> 6)(-1L)
    bm.andInto(1, 64, len, out)
    for (off <- 0 until len) {
      val blk = 64 + off
      if (blk < bm.numBlocks) {
        val bit = ((out(off >>> 6) >>> (off & 63)) & 1L) != 0L
        assert(bit === bm.contains(1, blk))
      }
    }
  }

  test("andInto intersects value bitmaps") {
    val rng    = new Random(4L)
    val codesA = Array.fill(2000)(rng.nextInt(3))
    val codesB = Array.fill(2000)(rng.nextInt(4))
    val bmA    = BlockBitmap.build(codesA, 3, 5)
    val bmB    = BlockBitmap.build(codesB, 4, 5)
    val len    = 128
    val inout  = Array.fill(len >>> 6)(-1L)
    bmA.andInto(0, 0, len, inout)
    bmB.andInto(2, 0, len, inout)
    for (off <- 0 until math.min(len, bmA.numBlocks)) {
      val bit = ((inout(off >>> 6) >>> (off & 63)) & 1L) != 0L
      assert(bit === (bmA.contains(0, off) && bmB.contains(2, off)))
    }
  }

  test("andInto requires word-aligned batch starts") {
    val bm = BlockBitmap.build(Array(0, 1, 0), 2, 1)
    assertThrows[IllegalArgumentException](bm.andInto(0, 3, 64, new Array[Long](1)))
  }
}
