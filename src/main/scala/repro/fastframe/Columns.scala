package repro.fastframe

/** Dictionary-encoded categorical column: `codes(row)` indexes into `dict`.
  * FastFrame builds block bitmaps only over categorical columns (paper §4).
  */
final case class CatColumn(name: String, codes: Array[Int], dict: Array[String]) {
  {
    // A primitive loop: this runs over every row at load and at permute.
    var i = 0
    while (i < codes.length && codes(i) >= 0 && codes(i) < dict.length) i += 1
    require(i == codes.length, s"column $name has out-of-dict code ${codes(i)} at row $i")
  }

  def cardinality: Int = dict.length

  def codeOf(value: String): Int = {
    val i = dict.indexOf(value)
    require(i >= 0, s"value '$value' not in dictionary of column $name")
    i
  }
}

/** Plain numeric column. The catalog range for [a, b] comes from its
  * min/max, inferred at load time (paper §2.2.1, "Known Range Bounds"),
  * so every value must be finite: a NaN or ±∞ would void the range.
  */
final case class NumColumn(name: String, values: Array[Double]) {

  /** Smallest and largest value (0 for an empty column). */
  val (min, max) = finiteRange()

  // One primitive pass, at load and at permute: every value must be
  // finite, and the same pass finds the range. It is a method because the
  // JIT cannot compile a loop that a pattern-val initializer enters with
  // a non-empty operand stack.
  private def finiteRange(): (Double, Double) = {
    var lo = Double.PositiveInfinity
    var hi = Double.NegativeInfinity
    var i  = 0
    while (i < values.length && java.lang.Double.isFinite(values(i))) {
      lo = math.min(lo, values(i))
      hi = math.max(hi, values(i))
      i += 1
    }
    require(i == values.length, s"column $name has non-finite value ${values(i)} at row $i")
    if (values.isEmpty) (0.0, 0.0) else (lo, hi)
  }
}

/** In-memory column store: the base relation FastFrame operates over.
  * All columns must have identical length.
  */
final class ColumnStore(
    val cats: Map[String, CatColumn],
    val nums: Map[String, NumColumn]) {

  val numRows: Int = {
    val lens = cats.values.map(_.codes.length) ++ nums.values.map(_.values.length)
    require(lens.nonEmpty, "a ColumnStore needs at least one column")
    require(lens.toSet.size == 1, s"ragged columns: ${lens.toSet}")
    lens.head
  }

  def cat(name: String): CatColumn =
    cats.getOrElse(name, throw new NoSuchElementException(s"no categorical column '$name'"))

  def num(name: String): NumColumn =
    nums.getOrElse(name, throw new NoSuchElementException(s"no numeric column '$name'"))

  /** A copy of this store with rows re-ordered by `perm` (row i of the
    * result is row perm(i) of this store).
    */
  def permuted(perm: Array[Int]): ColumnStore = {
    require(perm.length == numRows, "permutation length must equal numRows")
    new ColumnStore(
      cats.map { case (n, c) => n -> c.copy(codes = gather(c.codes, perm)) },
      nums.map { case (n, c) => n -> c.copy(values = gather(c.values, perm)) })
  }

  // Primitive gathers: a generic `perm.map(col)` boxes every element.
  private def gather(col: Array[Int], perm: Array[Int]): Array[Int] = {
    val out = new Array[Int](perm.length)
    var i = 0
    while (i < perm.length) { out(i) = col(perm(i)); i += 1 }
    out
  }

  private def gather(col: Array[Double], perm: Array[Int]): Array[Double] = {
    val out = new Array[Double](perm.length)
    var i = 0
    while (i < perm.length) { out(i) = col(perm(i)); i += 1 }
    out
  }
}
