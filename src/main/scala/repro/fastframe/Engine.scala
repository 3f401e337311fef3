package repro.fastframe

import repro.core.{Bounders, MomentBounder}

/** Sampling strategies of paper §4.3 / §5.2. */
sealed trait Strategy
object Strategy {
  /** Sequential block scan; bitmap pruning only for fixed predicates. */
  case object Scan extends Strategy
  /** Active scanning with one synchronous bitmap probe per (group, block). */
  case object ActiveSync extends Strategy
  /** Active scanning with batched 1024-block bitmap lookahead (the paper's
    * cache-efficient async lookahead, realized as word-level batch sweeps).
    */
  case object ActivePeek extends Strategy
}

/** Engine configuration. Defaults follow the paper's §5 setup: δ = 1e-15,
  * bounds recomputed every B = 40 000 rows processed.
  */
final case class EngineConfig(
    bounder: MomentBounder,
    delta: Double = 1e-15,
    roundRows: Long = 40000L,
    strategy: Strategy = Strategy.ActivePeek,
    startBlock: Int = 0) {
  require(delta > 0 && delta < 1, "delta must be in (0,1)")
  require(roundRows > 0, "roundRows must be positive")
}

/** The FastFrame query engine: approximate AVG with SSI error bounds and
  * early termination (paper §4). One run performs at most one full pass
  * over the scramble, starting from `cfg.startBlock` and wrapping; groups
  * whose view is fully covered become exact. The δ accounting, the
  * running intervals and the active set live in the [[ViewLedger]], one
  * view per group, which ends each round ([[ViewLedger.endRound]]).
  */
object Engine {

  /** ActivePeek lookahead batch, in blocks (a multiple of 64). */
  private[fastframe] val LookaheadBlocks = 1024

  def run(scramble: Scramble, query: FrameQuery, cfg: EngineConfig): QueryRun =
    run(scramble, query, cfg, FoldPool.shared)

  /** Each round first walks the blocks, deciding which to fetch, then
    * folds the fetched blocks' rows on `pool` ([[RoundFold]]). The active
    * set only changes between rounds, so the fetch decisions do not
    * depend on the fold.
    */
  private[fastframe] def run(scramble: Scramble, query: FrameQuery, cfg: EngineConfig, pool: FoldPool): QueryRun = {
    val t0 = System.nanoTime()

    val pred       = Predicate.compile(scramble, query.filter)
    val aggValues  = scramble.store.num(query.aggCol).values
    val (a, b)     = scramble.range(query.aggCol)
    val totalRows  = scramble.numRows
    val numBlocks  = scramble.numBlocks

    val codec     = new GroupCodec(scramble, query.groupBy)
    val numGroups = codec.numGroups
    val gMaps     = query.groupBy.map(scramble.bitmap).toArray
    val ledger    = new ViewLedger(numGroups, cfg.bounder, a, b, cfg.delta, totalRows)

    // The first numActive entries of activeList are the active gids in
    // order; activeCodes holds their per-column codes, numCols per gid
    // (bitmap probe targets). Rebuilt in place when the active set changes.
    val active      = ledger.activeFlags
    val numCols     = codec.numCols
    val activeList  = new Array[Int](numGroups)
    val activeCodes = new Array[Int](math.multiplyExact(numGroups, numCols))
    var numActive   = 0

    def listActive(): Unit = {
      numActive = 0
      var g = 0
      while (g < numGroups) {
        if (active(g)) {
          activeList(numActive) = g
          codec.codesInto(g, activeCodes, numActive * numCols)
          numActive += 1
        }
        g += 1
      }
    }
    listActive()

    // A round lists at most ceil(B / blockSize) + 1 blocks.
    val fold = new RoundFold(scramble, pred, codec, aggValues, active,
      math.min(numBlocks.toLong, cfg.roundRows / scramble.blockSize + 2).toInt)

    var coveredAll    = 0L
    var blocksFetched = 0L
    var rowsProcessed = 0L
    var bitmapProbes  = 0L
    var done          = false

    // ActivePeek lookahead mask over batches of LookaheadBlocks blocks.
    // Words before maskFrom were built for an earlier active set.
    val batchWords = LookaheadBlocks >>> 6
    val mask       = new Array[Long](batchWords)
    val tmpWords   = new Array[Long](batchWords)
    var maskBatch  = -1
    var maskFrom   = 0

    /** End the round at `coveredAll` rows passed; rebuild the active list
      * and the rest of the mask if the active set changed.
      */
    def recompute(): Unit = {
      if (ledger.endRound(coveredAll, query.stop)) {
        listActive()
        maskFrom = batchWords
      }
      done = ledger.numActive == 0
    }

    /** ActivePeek: mark the blocks of batch `batchId` from mask word `w0`
      * on that may hold an active group — the AND of the group's code
      * bitmaps over its group columns (all ones with none), ORed over the
      * active groups. The OR stops once every block of the batch from `w0`
      * on is marked (saturated): later groups cannot change the mask, and
      * only the groups ANDed count probes.
      */
    def buildMask(batchId: Int, w0: Int): Unit = {
      maskBatch = batchId
      maskFrom = w0
      val first = batchId * LookaheadBlocks
      val from  = first + 64 * w0
      // Only the words that hold blocks: the last batch may be partial.
      val blocksHere = math.min(LookaheadBlocks, numBlocks - first)
      val words      = (blocksHere + 63) / 64 - w0
      java.util.Arrays.fill(mask, w0, w0 + words, 0L)
      var saturated = false
      var i = 0
      while (i < numActive && !saturated) {
        java.util.Arrays.fill(tmpWords, 0, words, -1L)
        var c = 0
        while (c < numCols) {
          gMaps(c).andInto(activeCodes(i * numCols + c), from, 64 * words, tmpWords)
          bitmapProbes += words
          c += 1
        }
        var unmarked = 0L
        var w = 0
        while (w < words) {
          val m    = mask(w0 + w) | tmpWords(w)
          val left = blocksHere - 64 * (w0 + w)
          mask(w0 + w) = m
          unmarked |= ~m & (if (left >= 64) -1L else (1L << left) - 1)
          w += 1
        }
        saturated = unmarked == 0L
        i += 1
      }
    }

    /** ActivePeek: may block `blk` hold an active group? The mask of its
      * batch is built on entry, and rebuilt from `blk` on once the active
      * set has changed.
      */
    def peek(blk: Int): Boolean = {
      val batchId = blk / LookaheadBlocks
      val off     = blk - batchId * LookaheadBlocks
      if (batchId != maskBatch) buildMask(batchId, 0)
      else if ((off >>> 6) < maskFrom) buildMask(batchId, off >>> 6)
      ((mask(off >>> 6) >>> (off & 63)) & 1L) != 0L
    }

    /** ActiveSync: any active group present in this block? One probe per
      * group column per candidate group, stopping at the first hit.
      */
    def syncAnyActive(blk: Int): Boolean = {
      var i = 0
      while (i < numActive) {
        var ok = true
        var c  = 0
        while (ok && c < numCols) {
          bitmapProbes += 1
          ok = gMaps(c).contains(activeCodes(i * numCols + c), blk)
          c += 1
        }
        if (ok) return true
        i += 1
      }
      false
    }

    var nextRoundAt = cfg.roundRows
    var step        = 0
    while (step < numBlocks && !done) {
      val blk = (cfg.startBlock + step) % numBlocks
      val start = blk * scramble.blockSize
      val end   = math.min(totalRows, start + scramble.blockSize)

      val filterOk =
        if (pred.hasBlockPrunes) { bitmapProbes += 1; pred.blockMayMatch(blk) }
        else true

      val fetch = filterOk && (cfg.strategy match {
        case Strategy.Scan       => true
        case Strategy.ActiveSync => syncAnyActive(blk)
        case Strategy.ActivePeek => peek(blk)
      })

      coveredAll += (end - start)

      if (fetch) {
        blocksFetched += 1
        rowsProcessed += (end - start)
        fold.add(blk)
        if (rowsProcessed >= nextRoundAt) {
          fold.foldInto(ledger, activeList, numActive, pool)
          recompute()
          nextRoundAt = rowsProcessed + cfg.roundRows
        }
      }
      step += 1
    }

    // Full pass complete (or stop satisfied): groups active the whole way
    // have covered the entire scramble — mark exact and take a final round.
    fold.foldInto(ledger, activeList, numActive, pool)
    if (!done) recompute()

    val results = ledger.snapshot()
      .filter(_.m > 0)
      .map(gb => GroupResult(codec.keyOf(gb.gid), gb))

    QueryRun(query, results,
      Metrics(blocksFetched, rowsProcessed, ledger.rounds, System.nanoTime() - t0, bitmapProbes,
        ledger.crossedViews))
  }

  /** Exact baseline: one full (filter-bitmap-pruned) pass, no bounds.
    * Matches the paper's Exact strawman, which always uses Scan (§5.2).
    * It is `run` under [[exactConfig]]: every view stays active and has
    * covered every row at the one recompute, which makes it exact with the
    * point interval [mean, mean] and never calls the bounder.
    */
  def runExact(scramble: Scramble, query: FrameQuery, startBlock: Int = 0): QueryRun =
    run(scramble, query, exactConfig(startBlock))

  /** Scan, with the whole pass as one round. */
  private[fastframe] def exactConfig(startBlock: Int): EngineConfig =
    // A config needs a bounder; exact views never reach it.
    EngineConfig(Bounders.Hoeffding, roundRows = Long.MaxValue, strategy = Strategy.Scan, startBlock = startBlock)
}
