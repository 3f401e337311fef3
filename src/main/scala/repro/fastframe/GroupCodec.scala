package repro.fastframe

/** Group ids of a query: the mixed-radix code of a row's group-by column
  * codes, so the group domain is the product of the dictionary sizes (a
  * query without GROUP BY has the single group 0).
  */
final class GroupCodec(scramble: Scramble, groupBy: Seq[String]) {

  private val cols: Array[Array[Int]]     = groupBy.map(c => scramble.store.cat(c).codes).toArray
  private val dicts: Array[Array[String]] = groupBy.map(c => scramble.store.cat(c).dict).toArray
  private val cards: Array[Int]           = dicts.map(_.length)

  val numGroups: Int = {
    val n = cards.foldLeft(1L)(_ * _)
    require(n <= 1000000L, s"group domain too large: $n")
    n.toInt
  }

  /** Write the gid of row `sel(j)` to `out(j)` for j < `k`, one group
    * column at a time.
    */
  def gidsInto(sel: Array[Int], k: Int, out: Array[Int]): Unit = {
    java.util.Arrays.fill(out, 0, k, 0)
    var i = 0
    while (i < cols.length) {
      val col  = cols(i)
      val card = cards(i)
      var j    = 0
      while (j < k) { out(j) = out(j) * card + col(sel(j)); j += 1 }
      i += 1
    }
  }

  /** Number of group-by columns. */
  def numCols: Int = cards.length

  /** Write the per-column codes of a gid (inverse of [[gidsInto]]) to
    * `out(off)` … `out(off + numCols - 1)`.
    */
  def codesInto(gid: Int, out: Array[Int], off: Int): Unit = {
    var rem = gid
    var i   = cards.length - 1
    while (i >= 0) { out(off + i) = rem % cards(i); rem /= cards(i); i -= 1 }
  }

  /** Dictionary values of a gid, one per group-by column. */
  def keyOf(gid: Int): Seq[String] = {
    val codes = new Array[Int](numCols)
    codesInto(gid, codes, 0)
    codes.indices.map(i => dicts(i)(codes(i)))
  }
}
