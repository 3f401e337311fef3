package repro.fastframe

/** Block-level bitmap index for one categorical column (paper §4, §4.3):
  * bit (v, blk) is set iff block `blk` contains at least one row whose
  * code is `v`. Backed by packed Long words so the ActivePeek lookahead
  * can sweep whole batches of blocks with word-level operations, while
  * ActiveSync pays one random probe per (group, block) pair — the cache
  * behavior difference the paper's Table 6 measures.
  */
final class BlockBitmap private (
    val cardinality: Int,
    val numBlocks: Int,
    private val words: Array[Array[Long]]) {

  /** Single-bit probe: does block `blk` contain any row with code `v`?
    * This is the ActiveSync access path.
    */
  def contains(v: Int, blk: Int): Boolean =
    (words(v)(blk >>> 6) & (1L << (blk & 63))) != 0L

  /** AND this value's bits for blocks [from, from+len) into `inout`,
    * where `inout(i)` holds bits for blocks from+64·i … — the ActivePeek
    * batched access path (word-aligned `from` required, as the engine's
    * lookahead batches are multiples of 64 blocks). Starting from all ones
    * and ANDing one value per group column marks the blocks that may
    * contain group (v₁, …, vₙ): exact for one column, a safe
    * over-approximation for several.
    */
  def andInto(v: Int, from: Int, len: Int, inout: Array[Long]): Unit = {
    require((from & 63) == 0, "batch start must be word-aligned")
    val w0     = from >>> 6
    val nWords = (len + 63) >>> 6
    val row    = words(v)
    var i = 0
    while (i < nWords) {
      val w = if (w0 + i < row.length) row(w0 + i) else 0L
      inout(i) &= w
      i += 1
    }
  }
}

object BlockBitmap {

  /** Build the index for `codes` split into blocks of `blockSize` rows. */
  def build(codes: Array[Int], cardinality: Int, blockSize: Int): BlockBitmap = {
    require(blockSize > 0, "blockSize must be positive")
    val numBlocks = (codes.length + blockSize - 1) / blockSize
    val nWords    = (numBlocks + 63) >>> 6
    val words     = Array.fill(cardinality)(new Array[Long](nWords))
    var row = 0
    while (row < codes.length) {
      val blk = row / blockSize
      val v   = codes(row)
      words(v)(blk >>> 6) |= (1L << (blk & 63))
      row += 1
    }
    new BlockBitmap(cardinality, numBlocks, words)
  }
}
