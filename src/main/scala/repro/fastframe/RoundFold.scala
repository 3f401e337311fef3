package repro.fastframe

import java.util.concurrent.atomic.AtomicInteger
import java.util.concurrent.locks.LockSupport

/** The row fold of one round: the blocks a round fetched, in fetch order,
  * cut into at most [[RoundFold.Slices]] contiguous slices of at least
  * [[RoundFold.MinSliceBlocks]] blocks. Slice s folds the rows of active
  * views into its own partial moment array ([[ViewLedger]]'s layout), on
  * whichever [[FoldPool]] thread claims it; the partials are then merged
  * into the ledger in slice order.
  *
  * The cut depends only on the number of listed blocks and each partial
  * only on its slice's rows, so the merged moments are bit-identical for
  * any number of threads and any schedule. The blocks and rows are those
  * of the sequential scan: only the order of the floating-point fold
  * differs from one row at a time. Within a slice, rows are staged a
  * batch at a time ([[foldBlocks]]) without changing that order.
  *
  * @param active    the ledger's per-view activity, fixed while a fold runs
  * @param capacity  most blocks listed between two folds
  */
private[fastframe] final class RoundFold(
    scramble: Scramble,
    pred: Predicate.Compiled,
    codec: GroupCodec,
    values: Array[Double],
    active: Array[Boolean],
    capacity: Int) {
  import RoundFold._

  private val blocks    = new Array[Int](capacity)
  private var len       = 0
  private var numSlices = 0
  // Allocated on first use, on the calling thread, before any helper sees them.
  private val partials  = new Array[Array[Double]](Slices)

  /** List block `blk` for the next fold. */
  def add(blk: Int): Unit = { blocks(len) = blk; len += 1 }

  /** Fold the listed blocks' rows into the partials, merge the partials
    * into `ledger` in slice order over the first `count` of `views` (the
    * active ones) and clear the list.
    */
  def foldInto(ledger: ViewLedger, views: Array[Int], count: Int, pool: FoldPool): Unit = {
    numSlices = if (len == 0) 0 else math.max(1, math.min(Slices, len / MinSliceBlocks))
    var s = 0
    while (s < numSlices) {
      if (partials(s) == null) partials(s) = ViewLedger.emptyMoments(codec.numGroups)
      s += 1
    }
    if (numSlices > 0) pool.run(this, numSlices)
    s = 0
    while (s < numSlices) { ledger.merge(partials(s), views, count); s += 1 }
    len = 0
  }

  /** Fold slice `s` of the listed blocks; any thread may call it. */
  def foldSlice(s: Int): Unit =
    foldBlocks(partials(s), (s.toLong * len / numSlices).toInt, ((s + 1).toLong * len / numSlices).toInt)

  /** Fold the rows of listed blocks `from` until `to` into `part`, column
    * at a time over batches of [[BatchBlocks]] blocks: list a batch's rows
    * in `sel`, keep those that pass the filter, write their gids, keep
    * those of active views, and fold the survivors. Every step keeps the
    * rows in order, so each view takes the values a row-at-a-time loop
    * would, in the same order.
    */
  private[fastframe] def foldBlocks(part: Array[Double], from: Int, to: Int): Unit = {
    val bs   = scramble.blockSize
    val rows = scramble.numRows
    val st   = staging.get().ensure(BatchBlocks * bs)
    val sel  = st.sel
    val gids = st.gids
    var i    = from
    while (i < to) {
      val batchEnd = math.min(to, i + BatchBlocks)
      var k        = 0
      while (i < batchEnd) {
        var row = blocks(i) * bs
        val end = math.min(rows, row + bs)
        while (row < end) { sel(k) = row; k += 1; row += 1 }
        i += 1
      }
      k = pred.select(sel, k)
      codec.gidsInto(sel, k, gids)
      var n = 0
      var j = 0
      while (j < k) {
        val g = gids(j)
        sel(n) = sel(j)
        gids(n) = g
        n += (if (active(g)) 1 else 0)
        j += 1
      }
      j = 0
      while (j < n) { ViewLedger.fold(part, gids(j), values(sel(j))); j += 1 }
    }
  }
}

private[fastframe] object RoundFold {

  /** Most slices per fold, so at most this many threads fold a round. */
  val Slices = 4

  /** Fewest blocks per slice: shorter lists fold in fewer slices. */
  val MinSliceBlocks = 64

  /** Blocks staged at a time by [[RoundFold.foldBlocks]]: 1 000 rows at
    * the paper's block size. Batches of 10 to 160 blocks fold FLIGHTS at
    * about the same speed; this one keeps a thread's staging at 8 KB.
    */
  val BatchBlocks = 40

  /** A fold thread's selection and gid arrays, reused by every fold it
    * runs, so no query allocates them and concurrent folds never share.
    */
  private final class Staging {
    var sel  = new Array[Int](0)
    var gids = new Array[Int](0)

    def ensure(n: Int): Staging = {
      if (sel.length < n) { sel = new Array[Int](n); gids = new Array[Int](n) }
      this
    }
  }

  private val staging: ThreadLocal[Staging] = ThreadLocal.withInitial(() => new Staging)
}

/** The threads that fold a round's slices. The calling thread folds
  * slices itself; `helpers` daemon threads claim the rest from the same
  * atomic counter. One caller at a time: concurrent callers wait on the
  * pool.
  *
  * A helper spins for about [[FoldPool.SpinNanos]] after its last slice
  * before it parks. A query passes dozens of round barriers a few
  * milliseconds apart, and waking a parked thread can itself take
  * milliseconds on a virtualized host.
  */
private[fastframe] final class FoldPool(helpers: Int) {
  import FoldPool._

  @volatile private var job: Job = _
  @volatile private var open     = true
  private var jobs               = 0L

  private val threads: Array[Thread] = Array.tabulate(helpers) { i =>
    val t = new Thread(() => helperLoop(), s"$ThreadPrefix${i + 1}")
    t.setDaemon(true)
    t.start()
    t
  }

  /** Run `fold.foldSlice(s)` for every s in [0, n); returns when all are done. */
  def run(fold: RoundFold, n: Int): Unit =
    if (helpers == 0 || n == 1) {
      var s = 0
      while (s < n) { fold.foldSlice(s); s += 1 }
    } else synchronized {
      jobs += 1
      val j = new Job(fold, n, jobs)
      job = j
      threads.foreach(LockSupport.unpark)
      j.work()
      while (j.pending.get() > 0) Thread.onSpinWait()
      job = null
      if (j.failure != null) throw j.failure
    }

  /** Stop the helpers (pools built for one purpose, such as a test). */
  def close(): Unit = {
    open = false
    threads.foreach { t => LockSupport.unpark(t); t.join() }
  }

  private def helperLoop(): Unit = {
    var seen      = 0L
    var idleSince = System.nanoTime()
    while (open) {
      val j = job
      if (j != null && j.id != seen) {
        seen = j.id
        j.work()
        idleSince = System.nanoTime()
      } else if (System.nanoTime() - idleSince < SpinNanos) Thread.onSpinWait()
      else {
        LockSupport.park(this)
        idleSince = System.nanoTime()
      }
    }
  }
}

private[fastframe] object FoldPool {

  /** Name prefix of the helper threads. */
  val ThreadPrefix = "fastframe-fold-"

  /** How long an idle helper spins before it parks. */
  val SpinNanos = 1000000L

  /** The JVM's pool: one helper per further core, up to Slices − 1. */
  lazy val shared: FoldPool =
    new FoldPool(math.min(RoundFold.Slices - 1, Runtime.getRuntime.availableProcessors - 1))

  private final class Job(fold: RoundFold, n: Int, val id: Long) {
    val next    = new AtomicInteger(0)
    val pending = new AtomicInteger(n)
    @volatile var failure: Throwable = _

    /** Fold slices until none is left to claim. */
    def work(): Unit = {
      var s = next.getAndIncrement()
      while (s < n) {
        try fold.foldSlice(s)
        catch { case t: Throwable => failure = t }
        pending.decrementAndGet()
        s = next.getAndIncrement()
      }
    }
  }
}
