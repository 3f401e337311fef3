package repro.fastframe

import scala.util.Random

/** A scramble (paper Definition 4): a randomly permuted, block-organized
  * copy of a relation, so that a scan — or any block subset chosen without
  * knowledge of the permutation — yields a uniform without-replacement
  * sample of every aggregate view (paper Definition 5).
  *
  * Carries the FastFrame catalog state: [min, max] range bounds per
  * numeric column (the a, b handed to range-based bounders) and one
  * [[BlockBitmap]] per categorical column.
  *
  * @param store     the permuted relation
  * @param blockSize rows per block (paper §4.3 uses 25)
  */
final class Scramble private (
    val store: ColumnStore,
    val blockSize: Int,
    val bitmaps: Map[String, BlockBitmap],
    val ranges: Map[String, (Double, Double)]) {

  val numRows: Int   = store.numRows
  val numBlocks: Int = (numRows + blockSize - 1) / blockSize

  /** Catalog range bounds [a, b] for a numeric column (paper §2.2.1). */
  def range(col: String): (Double, Double) =
    ranges.getOrElse(col, throw new NoSuchElementException(s"no range for column '$col'"))

  def bitmap(col: String): BlockBitmap =
    bitmaps.getOrElse(col, throw new NoSuchElementException(s"no bitmap for column '$col'"))
}

object Scramble {

  /** Paper block size (§4.3): 25 rows per block. */
  val DefaultBlockSize: Int = 25

  /** Permute `base` with a seeded Fisher–Yates shuffle and build bitmaps
    * and catalog ranges. The up-front shuffle cost is paid once and
    * amortized over all subsequent queries (paper §4.1).
    */
  def fromStore(base: ColumnStore, blockSize: Int = DefaultBlockSize, seed: Long = 17L): Scramble = {
    val n    = base.numRows
    val perm = Array.tabulate(n)(identity)
    val rng  = new Random(seed)
    var i = n - 1
    while (i > 0) {
      val j = rng.nextInt(i + 1)
      val t = perm(i); perm(i) = perm(j); perm(j) = t
      i -= 1
    }
    val permuted = base.permuted(perm)
    val bitmaps = permuted.cats.map { case (name, c) =>
      name -> BlockBitmap.build(c.codes, c.cardinality, blockSize)
    }
    val ranges = permuted.nums.map { case (name, c) => name -> (c.min, c.max) }
    new Scramble(permuted, blockSize, bitmaps, ranges)
  }
}
