package repro.core

import repro.core.Assessment.AssessedCandidate
import repro.core.Selection.{SelectionConfig, SelectionResult}
import repro.lp.LpInstance
import repro.util.Det

/** Reference for `Selection.select`: its reduction written on Scala
  * collections (`groupBy(_.toSet)`, `Set.contains` signatures). The array
  * version in `Selection` must give an equal `SelectionResult`, bit for bit
  * (`SelectionEquivalenceSpec`).
  */
object SetSelection {

  /** @param candidates  assessed candidates, indexed by position
    * @param detections  (synId, candidate-position) detection pairs
    * @param nSyn        |C_syn|
    */
  def select(candidates: IndexedSeq[AssessedCandidate],
             detections: Seq[(Int, Int)],
             nSyn: Int,
             cfg: SelectionConfig): SelectionResult =
    reduce(candidates, detections, cfg) match {
      case None => SelectionResult(IndexedSeq.empty, 0.0, 0.0, 0)
      case Some(r) => round(candidates, cfg, r)
    }

  /** The LP (Eq 14-18 with integrality dropped) that `select` solves for
    * `cfg`, or None when no synthetic column is detected.
    */
  def lp(candidates: IndexedSeq[AssessedCandidate], detections: Seq[(Int, Int)],
         cfg: SelectionConfig): Option[LpInstance] =
    reduce(candidates, detections, cfg).map(_.lp)

  /** The LP's candidates (positions in `candidates`), its coverage groups
    * (K_g as LP positions, weight) and the LP.
    */
  private final case class Reduced(lpCands: IndexedSeq[Int], liveGroups: IndexedSeq[(IndexedSeq[Int], Int)],
                                   lp: LpInstance)

  private def reduce(candidates: IndexedSeq[AssessedCandidate], detections: Seq[(Int, Int)],
                     cfg: SelectionConfig): Option[Reduced] = {

    // --- K_j construction (FSS filters to near-best confidence) -----------
    val bySyn: Map[Int, IndexedSeq[Int]] =
      detections.groupBy(_._1).view.mapValues(_.map(_._2).distinct.toIndexedSeq).toMap
    val kSets: Map[Int, IndexedSeq[Int]] = cfg.delta match {
      case None => bySyn
      case Some(d) =>
        bySyn.view.mapValues { ks =>
          val best = ks.map(i => candidates(i).sdc.confidence).max
          ks.filter(i => candidates(i).sdc.confidence >= best - d)
        }.toMap
    }

    // --- merge synthetic columns with identical detector sets -------------
    val groups: IndexedSeq[(Set[Int], Int)] = kSets.values
      .filter(_.nonEmpty)
      .groupBy(_.toSet)
      .map { case (k, occurrences) => (k, occurrences.size) }
      .toIndexedSeq
      .sortBy { case (k, w) => (-w, k.min) }

    if (groups.isEmpty)
      return None

    // --- candidate dedup by detector signature ----------------------------
    val usedCands: IndexedSeq[Int] = groups.flatMap(_._1).distinct.sorted
    val sigOf: Map[Int, IndexedSeq[Int]] = usedCands.map { ci =>
      ci -> groups.indices.filter(g => groups(g)._1.contains(ci)).toIndexedSeq
    }.toMap
    val dedup: IndexedSeq[Int] = sigOf
      .groupBy(_._2)
      .map { case (_, members) =>
        members.keys.minBy(ci => (candidates(ci).fpr, -candidates(ci).sdc.confidence, ci))
      }
      .toIndexedSeq
      .sorted
    // Keep the strongest detectors if the LP would be too large.
    val lpCands: IndexedSeq[Int] =
      if (dedup.size <= cfg.maxLpCandidates) dedup
      else dedup.sortBy(ci => -sigOf(ci).map(g => groups(g)._2).sum).take(cfg.maxLpCandidates).sorted

    val candPos: Map[Int, Int] = lpCands.zipWithIndex.toMap
    val liveGroups: IndexedSeq[(IndexedSeq[Int], Int)] = groups.map { case (k, w) =>
      (k.toIndexedSeq.flatMap(candPos.get).sorted, w)
    }.filter(_._1.nonEmpty)

    val nx = lpCands.size
    val ng = liveGroups.size

    // --- CSS-LP (Eq 14-18 with integrality dropped) -----------------------
    // vars: x_0..x_{nx-1}, y_0..y_{ng-1}
    val n = nx + ng
    val obj = new Array[Double](n)
    liveGroups.zipWithIndex.foreach { case ((_, w), g) => obj(nx + g) = w.toDouble }

    val rows = IndexedSeq.newBuilder[Array[(Int, Double)]]
    val rhs  = IndexedSeq.newBuilder[Double]
    // (15) size budget
    rows += Array.tabulate(nx)(i => (i, 1.0)); rhs += cfg.bSize.toDouble
    // (16) FPR budget
    rows += Array.tabulate(nx)(i => (i, candidates(lpCands(i)).fpr)); rhs += cfg.bFpr
    // (17) coverage: y_g − Σ_{i∈K_g} x_i <= 0
    liveGroups.zipWithIndex.foreach { case ((k, _), g) =>
      rows += (k.map(i => (i, -1.0)) :+ (nx + g, 1.0)).toArray
      rhs += 0.0
    }
    // (18 relaxed) 0 <= x_i, y_g <= 1 are the solver's bounds, not rows.
    Some(Reduced(lpCands, liveGroups, LpInstance(obj, rows.result().toArray, rhs.result().toArray, Array.fill(n)(1.0))))
  }

  private def round(candidates: IndexedSeq[AssessedCandidate], cfg: SelectionConfig, r: Reduced): SelectionResult = {
    import r.{lpCands, liveGroups}
    val nx = lpCands.size
    val lp = r.lp.solve()
    // --- randomized rounding (Algorithm 1 lines 4-7, best-of-trials) ------
    val xFrac = lp.x.take(nx)
    def evalPick(picked: Array[Boolean]): (Double, Boolean) = {
      var covered = 0.0
      liveGroups.foreach { case (k, w) => if (k.exists(picked(_))) covered += w }
      val size = picked.count(identity)
      val fpr = (0 until nx).iterator.filter(picked(_)).map(i => candidates(lpCands(i)).fpr).sum
      (covered, size <= cfg.bSize && fpr <= cfg.bFpr + 1e-12)
    }
    var best: Array[Boolean] = null
    var bestObj = -1.0
    var t = 0
    while (t < Selection.RoundingTrials) {
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
      var fpr = 0.0; var size = 0
      order.foreach { i =>
        val f = candidates(lpCands(i)).fpr
        if (size < cfg.bSize && fpr + f <= cfg.bFpr) { picked(i) = true; size += 1; fpr += f }
      }
      best = picked
      bestObj = evalPick(picked)._1
    }

    val selected = (0 until nx).collect { case i if best(i) => candidates(lpCands(i)) }
    SelectionResult(selected.toIndexedSeq, lp.objective, bestObj, lp.iterations)
  }
}
