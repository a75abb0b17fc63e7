package repro.core

import repro.core.Assessment.AssessedCandidate
import repro.lp.Simplex
import repro.util.Det

import scala.collection.immutable.HashMap
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer
import scala.util.hashing.MurmurHash3

/** SDC selection by LP-relaxation + randomized rounding (paper Sec 5.3).
  *
  * Implements both Coarse-Select (CSS, Definition 4 / Algorithm 1) and
  * Fine-Select (FSS, Definition 5): FSS restricts each synthetic column's
  * detector set K_j to rules whose confidence is within δ of the best
  * confidence over R_all (Appendix C.3), then solves the same CSS-ILP shape.
  *
  * Before the LP we apply two exact reductions (DESIGN §5): synthetic
  * columns with identical detector sets are merged into one weighted
  * coverage variable, and candidates with identical detector signatures are
  * merged keeping the lowest-FPR representative. Rounding draws each x_i
  * with probability x_i over several seeded trials, keeping the best
  * feasible draw (a standard derandomization of Algorithm 1's single draw).
  */
object Selection {

  final case class SelectionConfig(
      bSize: Int = 500,
      bFpr: Double = 0.1,
      /** None = CSS (Coarse-Select); Some(δ) = FSS (Fine-Select). */
      delta: Option[Double] = None,
      /** Cap on candidates entering the LP (top detectors kept). */
      maxLpCandidates: Int = 2500,
      seed: Long = 7,
  )

  /** Seeded rounding draws per selection (Algorithm 1 lines 4-7). */
  private[core] val RoundingTrials: Int = 32

  final case class SelectionResult(
      selected: IndexedSeq[AssessedCandidate],
      lpObjective: Double,
      roundedObjective: Double,
      lpIterations: Int,
  )

  /** A sorted, distinct id array keyed by its contents. Its hash is the
    * `Set[Int]` hash of its ids, `MurmurHash3.unorderedHash(ids, setSeed)`
    * (an `Int`'s `##` is itself), so an immutable `HashMap` keyed on it
    * iterates in the order of one keyed on that set (DESIGN §5).
    */
  private[core] final class IdSet(val ids: Array[Int]) {
    override val hashCode: Int = {
      var a, b = 0
      var c = 1
      var i = 0
      while (i < ids.length) { val h = ids(i); a += h; b ^= h; c *= h | 1; i += 1 }
      MurmurHash3.finalizeHash(
        MurmurHash3.mixLast(MurmurHash3.mix(MurmurHash3.mix(MurmurHash3.setSeed, a), b), c), ids.length)
    }
    override def equals(o: Any): Boolean = o match {
      case k: IdSet => hashCode == k.hashCode && java.util.Arrays.equals(ids, k.ids)
      case _ => false
    }
  }

  /** Keeps, in place, those of the first `len` ids of `k` whose confidence
    * is within `d` of their best (the first maximum under `Double`'s total
    * order, as `max` picks it); returns how many it kept.
    */
  private def nearBest(k: Array[Int], len: Int, conf: Array[Double], d: Double): Int = {
    var best = conf(k(0))
    var i = 1
    while (i < len) { if (java.lang.Double.compare(conf(k(i)), best) > 0) best = conf(k(i)); i += 1 }
    val floor = best - d
    var kept = 0
    i = 0
    while (i < len) { if (conf(k(i)) >= floor) { k(kept) = k(i); kept += 1 }; i += 1 }
    kept
  }

  /** Indices of the distinct K_j sets `keys`, of weights `w`, in LP row
    * order (DESIGN §5, group order rule): by (−w, min K), and among ties in
    * the iteration order of an immutable `HashMap` keyed on the sets.
    */
  private[core] def groupOrder(keys: Array[IdSet], w: Array[Int]): Array[Int] = {
    val byHash = HashMap.newBuilder[IdSet, Int]
    keys.indices.foreach(g => byHash.addOne(keys(g), g))
    byHash.result().valuesIterator.toArray
      .sorted(Ordering.fromLessThan[Int]((a, b) => w(a) > w(b) || w(a) == w(b) && keys(a).ids(0) < keys(b).ids(0)))
  }

  /** @param candidates  assessed candidates, indexed by position
    * @param detections  (synId, candidate-position) detection pairs, in any
    *                    order and possibly repeated
    * @param nSyn        |C_syn|; unread, kept because perfbench's
    *                    `StagedTrain` passes it positionally (ROADMAP item 2)
    *
    * The reduction runs on primitive arrays. The LP's group rows are in
    * `groupOrder`, which decides the LP's vertex on ties, and with it the
    * rounded selection. Its one insertion-order case, two tied sets whose
    * 32-bit hashes collide in full, inserts them in ascending order of their
    * first synthetic column id.
    */
  def select(candidates: IndexedSeq[AssessedCandidate],
             detections: Seq[(Int, Int)],
             nSyn: Int,
             cfg: SelectionConfig): SelectionResult =
    select(candidates, pack(detections), cfg)

  /** The detection pairs as one sorted array of (syn << 32 | candidate). */
  private[core] def pack(detections: Seq[(Int, Int)]): Array[Long] = {
    val pairs = new Array[Long](detections.size)
    var p = 0
    detections.foreach { case (s, c) => pairs(p) = (s.toLong << 32) | (c & 0xffffffffL); p += 1 }
    java.util.Arrays.sort(pairs)
    pairs
  }

  /** `select` on detections already packed and sorted by `pack`. */
  private[core] def select(candidates: IndexedSeq[AssessedCandidate],
                           pairs: Array[Long],
                           cfg: SelectionConfig): SelectionResult = {
    val conf = Array.tabulate(candidates.size)(candidates(_).sdc.confidence)
    val fprOf = Array.tabulate(candidates.size)(candidates(_).fpr)

    // --- K_j construction (FSS filters to near-best confidence), and ------
    // --- merging of synthetic columns with identical detector sets --------
    // Each K_j is a run of `pairs`, sorted and, skipping repeats, distinct.
    val kIndex = mutable.HashMap.empty[IdSet, Int]
    val kKeys = ArrayBuffer.empty[IdSet]
    val kWeights = ArrayBuffer.empty[Int]
    val run = new Array[Int](pairs.length)
    var start = 0
    while (start < pairs.length) {
      val syn = pairs(start) >>> 32
      var len = 0
      var q = start
      while (q < pairs.length && (pairs(q) >>> 32) == syn) {
        val c = pairs(q).toInt
        if (len == 0 || run(len - 1) != c) { run(len) = c; len += 1 }
        q += 1
      }
      start = q
      if (cfg.delta.isDefined) len = nearBest(run, len, conf, cfg.delta.get)
      if (len > 0) {
        val key = new IdSet(java.util.Arrays.copyOf(run, len))
        val g = kIndex.getOrElseUpdate(key, { kKeys += key; kWeights += 0; kKeys.size - 1 })
        kWeights(g) += 1
      }
    }
    val keys = kKeys.toArray
    val kSets = keys.map(_.ids)
    val kW = kWeights.toArray
    val groups = groupOrder(keys, kW)

    if (groups.isEmpty)
      return SelectionResult(IndexedSeq.empty, 0.0, 0.0, 0)

    // --- candidate dedup by detector signature ----------------------------
    // A candidate's signature is the increasing list of groups containing it.
    val sigLen = new Array[Int](candidates.size)
    kSets.foreach { k => var i = 0; while (i < k.length) { sigLen(k(i)) += 1; i += 1 } }
    val sigOf = Array.tabulate(candidates.size)(c => new Array[Int](sigLen(c)))
    java.util.Arrays.fill(sigLen, 0)
    var gi = 0
    while (gi < groups.length) {
      val k = kSets(groups(gi))
      var i = 0
      while (i < k.length) { val c = k(i); sigOf(c)(sigLen(c)) = gi; sigLen(c) += 1; i += 1 }
      gi += 1
    }
    def better(a: Int, b: Int): Boolean = { // (fpr, −confidence) order, ties to the lower index
      val byFpr = java.lang.Double.compare(fprOf(a), fprOf(b))
      byFpr < 0 || byFpr == 0 && java.lang.Double.compare(-conf(a), -conf(b)) < 0
    }
    val bySig = mutable.HashMap.empty[IdSet, Int]
    var c = 0
    while (c < candidates.size) {
      if (sigLen(c) > 0) {
        val sig = new IdSet(sigOf(c))
        bySig.get(sig) match {
          case Some(rep) if !better(c, rep) =>
          case _ => bySig(sig) = c
        }
      }
      c += 1
    }
    val dedup: Array[Int] = bySig.valuesIterator.toArray.sorted
    // Keep the strongest detectors if the LP would be too large: by summed
    // group weight, descending, ties to the lower index.
    val lpCands: Array[Int] =
      if (dedup.length <= cfg.maxLpCandidates) dedup
      else {
        val byWeight = dedup.map(c => (Int.MaxValue - sigOf(c).map(gi => kW(groups(gi))).sum).toLong << 32 | c)
        java.util.Arrays.sort(byWeight)
        byWeight.take(cfg.maxLpCandidates).map(_.toInt).sorted
      }

    val candPos = Array.fill(candidates.size)(-1)
    lpCands.indices.foreach(i => candPos(lpCands(i)) = i)
    val liveK = new Array[Array[Int]](groups.length)
    val liveW = new Array[Int](groups.length)
    val liveIdx = new Array[Int](groups.length) // a live group's LP row
    var ng = 0
    gi = 0
    while (gi < groups.length) {
      val k = kSets(groups(gi))
      var live = 0
      var i = 0
      while (i < k.length) { if (candPos(k(i)) >= 0) live += 1; i += 1 }
      if (live > 0) {
        val kl = new Array[Int](live)
        live = 0
        i = 0
        while (i < k.length) { val pos = candPos(k(i)); if (pos >= 0) { kl(live) = pos; live += 1 }; i += 1 }
        liveK(ng) = kl
        liveW(ng) = kW(groups(gi))
        liveIdx(gi) = ng
        ng += 1
      }
      gi += 1
    }

    val nx = lpCands.length

    // --- CSS-LP (Eq 14-18 with integrality dropped) -----------------------
    // vars: x_0..x_{nx-1}, y_0..y_{ng-1}
    val n = nx + ng
    val obj = new Array[Double](n)
    for (g <- 0 until ng) obj(nx + g) = liveW(g).toDouble
    val fpr = lpCands.map(fprOf)

    val rows = IndexedSeq.newBuilder[Array[(Int, Double)]]
    val rhs  = IndexedSeq.newBuilder[Double]
    // (15) size budget
    rows += Array.tabulate(nx)(i => (i, 1.0)); rhs += cfg.bSize.toDouble
    // (16) FPR budget
    rows += Array.tabulate(nx)(i => (i, fpr(i))); rhs += cfg.bFpr
    // (17) coverage: y_g − Σ_{i∈K_g} x_i <= 0
    for (g <- 0 until ng) {
      rows += (liveK(g).map(i => (i, -1.0)) :+ (nx + g, 1.0))
      rhs += 0.0
    }
    // (18 relaxed) 0 <= x_i, y_g <= 1 are the solver's bounds, not rows.
    val lp = Simplex.maximize(obj, rows.result().toArray, rhs.result().toArray, Array.fill(n)(1.0))

    // --- randomized rounding (Algorithm 1 lines 4-7, best-of-trials) ------
    // A uniform in [0, 1) is below x_i always at x_i >= 1 and never at
    // x_i <= 0, so only a fractional x_i is drawn; what the x_i = 1 picks
    // cover is counted once. Weights are integers, so a trial's covered
    // weight, a sum in any order, converts to the same `Double`.
    val xFrac = lp.x.take(nx)
    // x_i's groups: its signature's, all live since they hold x_i.
    val groupsOf = Array.tabulate(nx)(i => sigOf(lpCands(i)).map(liveIdx))
    /** Marks the groups of x_i not yet marked `stamp`; returns their weight. */
    def cover(i: Int, mark: Array[Int], stamp: Int): Long = {
      var w = 0L
      val gs = groupsOf(i)
      var k = 0
      while (k < gs.length) { val g = gs(k); if (mark(g) < stamp) { mark(g) = stamp; w += liveW(g) }; k += 1 }
      w
    }
    def picks(t: Int, i: Int): Boolean =
      xFrac(i) >= 1.0 || xFrac(i) > 0.0 && Det.uniform(Det.combine(cfg.seed, t.toLong, i.toLong)) < xFrac(i)
    val live = (0 until nx).filter(xFrac(_) > 0.0).toArray // picked in some trial, in index order
    val mark = new Array[Int](ng) // Int.MaxValue: covered at x = 1; else the last trial + 1 covering it
    var fixedW = 0L
    for (i <- live if xFrac(i) >= 1.0) fixedW += cover(i, mark, Int.MaxValue)
    var bestTrial = -1
    var bestObj = -1.0
    var t = 0
    while (t < RoundingTrials) {
      var covered = fixedW
      var size = 0
      var fprSum = 0.0 // summed in index order
      var q = 0
      while (q < live.length) {
        val i = live(q)
        if (picks(t, i)) {
          size += 1
          fprSum += fpr(i)
          if (xFrac(i) < 1.0) covered += cover(i, mark, t + 1)
        }
        q += 1
      }
      if (size <= cfg.bSize && fprSum <= cfg.bFpr + 1e-12 && covered.toDouble > bestObj) {
        bestObj = covered.toDouble; bestTrial = t
      }
      t += 1
    }
    val best: Array[Boolean] =
      if (bestTrial >= 0) Array.tabulate(nx)(picks(bestTrial, _))
      else { // all trials infeasible: take deterministic top-prob subset
        val order = (0 until nx).sortBy(i => -xFrac(i))
        val picked = new Array[Boolean](nx)
        var fprSum = 0.0; var size = 0
        order.foreach { i =>
          if (size < cfg.bSize && fprSum + fpr(i) <= cfg.bFpr) { picked(i) = true; size += 1; fprSum += fpr(i) }
        }
        val fresh = new Array[Int](ng)
        bestObj = (0 until nx).filter(picked).map(cover(_, fresh, 1)).sum.toDouble
        picked
      }

    val selected = (0 until nx).collect { case i if best(i) => candidates(lpCands(i)) }
    SelectionResult(selected.toIndexedSeq, lp.objective, bestObj, lp.iterations)
  }
}
