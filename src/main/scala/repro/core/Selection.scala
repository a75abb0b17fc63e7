package repro.core

import repro.core.Assessment.AssessedCandidate
import repro.lp.Simplex
import repro.util.Det

import scala.collection.immutable.{ArraySeq, HashMap}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

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

  /** @param candidates  assessed candidates, indexed by position
    * @param detections  (synId, candidate-position) detection pairs, in any
    *                    order and possibly repeated
    * @param nSyn        |C_syn|
    *
    * The reduction runs on primitive arrays. The LP's group rows are ordered
    * by (−w, min K) and, among groups tied on that key, by the iteration
    * order of an immutable `HashMap[Set[Int], _]` keyed on the distinct
    * detector sets. That order is kept because it decides the LP's vertex on
    * ties, and with it the rounded selection. A CHAMP map's iteration order
    * depends only on its keys' hashes; the one case where insertion order
    * decides is two tied sets whose 32-bit hashes collide in full, which are
    * then inserted in ascending order of their first synthetic column id.
    */
  def select(candidates: IndexedSeq[AssessedCandidate],
             detections: Seq[(Int, Int)],
             nSyn: Int,
             cfg: SelectionConfig): SelectionResult = {

    // --- K_j construction (FSS filters to near-best confidence), and ------
    // --- merging of synthetic columns with identical detector sets --------
    // One sorted array of (syn << 32 | candidate): each K_j is a run of it,
    // sorted and, skipping repeats, distinct.
    val pairs = new Array[Long](detections.size)
    var p = 0
    detections.foreach { case (s, c) => pairs(p) = (s.toLong << 32) | (c & 0xffffffffL); p += 1 }
    java.util.Arrays.sort(pairs)
    val kIndex = mutable.HashMap.empty[ArraySeq[Int], Int]
    val kSets = ArrayBuffer.empty[Array[Int]]
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
      var k = java.util.Arrays.copyOf(run, len)
      cfg.delta.foreach { d =>
        val best = k.map(candidates(_).sdc.confidence).max
        k = k.filter(candidates(_).sdc.confidence >= best - d)
      }
      if (k.nonEmpty) {
        val g = kIndex.getOrElseUpdate(ArraySeq.unsafeWrapArray(k), { kSets += k; kWeights += 0; kSets.size - 1 })
        kWeights(g) += 1
      }
    }
    // kSets indices in LP row order (DESIGN §5, group order rule)
    val groups: Array[Int] = HashMap.from(kSets.indices.map(g => kSets(g).toSet -> g))
      .valuesIterator.toArray
      .sortBy(g => (-kWeights(g), kSets(g)(0)))

    if (groups.isEmpty)
      return SelectionResult(IndexedSeq.empty, 0.0, 0.0, 0)

    // --- candidate dedup by detector signature ----------------------------
    // A candidate's signature is the increasing list of groups containing it.
    val sigLen = new Array[Int](candidates.size)
    groups.foreach(g => kSets(g).foreach(c => sigLen(c) += 1))
    val sigOf = Array.tabulate(candidates.size)(c => new Array[Int](sigLen(c)))
    java.util.Arrays.fill(sigLen, 0)
    for (gi <- groups.indices; c <- kSets(groups(gi))) { sigOf(c)(sigLen(c)) = gi; sigLen(c) += 1 }
    def better(a: Int, b: Int): Boolean = { // (fpr, −confidence) order, ties to the lower index
      val byFpr = java.lang.Double.compare(candidates(a).fpr, candidates(b).fpr)
      byFpr < 0 || byFpr == 0 &&
        java.lang.Double.compare(-candidates(a).sdc.confidence, -candidates(b).sdc.confidence) < 0
    }
    val bySig = mutable.HashMap.empty[ArraySeq[Int], Int]
    for (c <- candidates.indices if sigLen(c) > 0) {
      val sig = ArraySeq.unsafeWrapArray(sigOf(c))
      bySig.get(sig) match {
        case Some(rep) if !better(c, rep) =>
        case _ => bySig(sig) = c
      }
    }
    val dedup: Array[Int] = bySig.valuesIterator.toArray.sorted
    // Keep the strongest detectors if the LP would be too large.
    val lpCands: Array[Int] =
      if (dedup.length <= cfg.maxLpCandidates) dedup
      else dedup.sortBy(c => -sigOf(c).map(gi => kWeights(groups(gi))).sum).take(cfg.maxLpCandidates).sorted

    val candPos = Array.fill(candidates.size)(-1)
    lpCands.indices.foreach(i => candPos(lpCands(i)) = i)
    val (liveK, liveW) = groups
      .map(g => (kSets(g).map(candPos).filter(_ >= 0), kWeights(g)))
      .filter(_._1.nonEmpty)
      .unzip

    val nx = lpCands.length
    val ng = liveK.length

    // --- CSS-LP (Eq 14-18 with integrality dropped) -----------------------
    // vars: x_0..x_{nx-1}, y_0..y_{ng-1}
    val n = nx + ng
    val obj = new Array[Double](n)
    for (g <- 0 until ng) obj(nx + g) = liveW(g).toDouble
    val fpr = lpCands.map(candidates(_).fpr)

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
    // (18 relaxed) upper bounds
    (0 until n).foreach { j => rows += Array((j, 1.0)); rhs += 1.0 }

    val lp = Simplex.maximize(obj, rows.result().toArray, rhs.result().toArray)

    // --- randomized rounding (Algorithm 1 lines 4-7, best-of-trials) ------
    val xFrac = lp.x.take(nx)
    def evalPick(picked: Array[Boolean]): (Double, Boolean) = {
      var covered = 0.0
      for (g <- 0 until ng) if (liveK(g).exists(picked(_))) covered += liveW(g)
      var size = 0
      var fprSum = 0.0 // summed in index order
      for (i <- 0 until nx) if (picked(i)) { size += 1; fprSum += fpr(i) }
      (covered, size <= cfg.bSize && fprSum <= cfg.bFpr + 1e-12)
    }
    var best: Array[Boolean] = null
    var bestObj = -1.0
    var t = 0
    while (t < RoundingTrials) {
      val picked = Array.tabulate(nx) { i =>
        Det.uniform(Det.combine(cfg.seed, t.toLong, i.toLong)) < xFrac(i)
      }
      val (o, feasible) = evalPick(picked)
      if (feasible && o > bestObj) { bestObj = o; best = picked }
      t += 1
    }
    if (best == null) { // all trials infeasible: take deterministic top-prob subset
      val order = (0 until nx).sortBy(i => -xFrac(i))
      val picked = new Array[Boolean](nx)
      var fprSum = 0.0; var size = 0
      order.foreach { i =>
        if (size < cfg.bSize && fprSum + fpr(i) <= cfg.bFpr) { picked(i) = true; size += 1; fprSum += fpr(i) }
      }
      best = picked
      bestObj = evalPick(picked)._1
    }

    val selected = (0 until nx).collect { case i if best(i) => candidates(lpCands(i)) }
    SelectionResult(selected.toIndexedSeq, lp.objective, bestObj, lp.iterations)
  }
}
