package repro.fastframe

/** Row-level predicates supported by FastFrame queries. Categorical
  * equality predicates additionally admit block-level bitmap pruning
  * (a block with no matching tuple can be skipped by every strategy,
  * including Scan and Exact — paper §5.2, "Scan … may leverage bitmaps
  * for evaluation of whether a block contains tuples that satisfy a fixed
  * predicate").
  */
sealed trait Predicate

object Predicate {
  /** No filter: every row is in the view. */
  case object True extends Predicate

  /** Categorical equality, e.g. Origin = 'ORD'. Bitmap-prunable. */
  final case class CatEq(col: String, value: String) extends Predicate

  /** Numeric strictly-greater filter, e.g. DepTime > 13:50. Row-level only. */
  final case class NumGt(col: String, threshold: Double) extends Predicate

  /** Conjunction. */
  final case class And(ps: Seq[Predicate]) extends Predicate

  private def flatten(p: Predicate): Seq[Predicate] = p match {
    case And(ps) => ps.flatMap(flatten)
    case True    => Seq.empty
    case other   => Seq(other)
  }

  /** Predicate compiled against a scramble: a row selection plus an
    * optional block-level prune test derived from CatEq conjuncts.
    */
  final class Compiled(scramble: Scramble, p: Predicate) {
    private val conjuncts = flatten(p)

    // Row tests as parallel primitive arrays: conjunct i passes a row when
    // catCols(i)(row) == catCodes(i), or numCols(i)(row) > numThresholds(i).
    private val catEqs                     = conjuncts.collect { case p: CatEq => p }
    private val catCols: Array[Array[Int]] = catEqs.map(p => scramble.store.cat(p.col).codes).toArray
    private val catCodes: Array[Int]       = catEqs.map(p => scramble.store.cat(p.col).codeOf(p.value)).toArray

    private val numGts                        = conjuncts.collect { case p: NumGt => p }
    private val numCols: Array[Array[Double]] = numGts.map(p => scramble.store.num(p.col).values).toArray
    private val numThresholds: Array[Double]  = numGts.map(_.threshold).toArray

    /** (bitmap, code) pairs for block-level pruning. */
    private val blockPrunes: Array[(BlockBitmap, Int)] = conjuncts.collect {
      case CatEq(col, value) => (scramble.bitmap(col), scramble.store.cat(col).codeOf(value))
    }.toArray

    /** Keep, in order, the first `k` rows of `sel` that pass every
      * conjunct, one conjunct at a time and without a branch on the data;
      * returns how many are kept.
      */
    def select(sel: Array[Int], k: Int): Int = {
      var n = k
      var i = 0
      while (i < catCols.length) {
        val col  = catCols(i)
        val code = catCodes(i)
        var kept = 0
        var j    = 0
        while (j < n) {
          val row = sel(j)
          sel(kept) = row
          kept += (if (col(row) == code) 1 else 0)
          j += 1
        }
        n = kept
        i += 1
      }
      i = 0
      while (i < numCols.length) {
        val col  = numCols(i)
        val t    = numThresholds(i)
        var kept = 0
        var j    = 0
        while (j < n) {
          val row = sel(j)
          sel(kept) = row
          kept += (if (col(row) > t) 1 else 0)
          j += 1
        }
        n = kept
        i += 1
      }
      n
    }

    /** May block `blk` contain any matching row? (False ⇒ certainly not.) */
    def blockMayMatch(blk: Int): Boolean = {
      var i = 0
      while (i < blockPrunes.length) {
        if (!blockPrunes(i)._1.contains(blockPrunes(i)._2, blk)) return false
        i += 1
      }
      true
    }

    def hasBlockPrunes: Boolean = blockPrunes.nonEmpty
  }

  def compile(scramble: Scramble, p: Predicate): Compiled = new Compiled(scramble, p)
}
