package repro.core

import repro.dists.{DomainEval, EvalRegistry}

/** SDC candidate enumeration (paper Sec 5.1): for every domain-evaluation
  * function, grid-search (d_in, d_out, m) with fixed steps.
  *
  * Grids are family-specific because each family has a characteristic
  * distance range: CTA distances live in [0,1], embedding distances are
  * continuous (GloVe-sim ~[1.5, 10], SBERT-sim scaled ~4x smaller), and
  * pattern/function distances are 0/1 (so d_in = 0 and any d_out in (0,1)
  * are the only meaningful choices — cf. Example 3's r_6).
  */
object CandidateGen {

  /** Threshold grid for one evaluator. */
  final case class Grid(dIns: Seq[Double], dOuts: Seq[Double], ms: Seq[Double])

  // m is enumerated down to 0.70: columns with injected-error rates up to
  // ~25% (the Table 4 "+20%" setting) must still be coverable by some rule;
  // the statistical tests prune low-m variants that misbehave on the corpus.
  private val nlMs = Seq(0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95)

  def gridFor(eval: DomainEval): Grid = eval.family match {
    case DomainEval.Cta =>
      Grid(dIns = Seq(0.15, 0.25, 0.45), dOuts = Seq(0.80, 0.90, 0.95), ms = nlMs)
    case DomainEval.Embedding =>
      if (eval.id.startsWith("emb:glove"))
        Grid(dIns = Seq(2.0, 2.5, 3.0, 4.0), dOuts = Seq(5.0, 6.0, 7.0, 8.0), ms = nlMs)
      else // sbert (globalScale 0.25)
        Grid(dIns = Seq(0.5, 0.65, 0.8, 1.0), dOuts = Seq(1.3, 1.6, 2.0, 2.4), ms = nlMs)
    case DomainEval.Pattern =>
      Grid(dIns = Seq(0.0), dOuts = Seq(0.5), ms = Seq(0.60, 0.65, 0.70, 0.75, 0.80, 0.85, 0.90, 0.95, 0.98))
    case DomainEval.Function =>
      Grid(dIns = Seq(0.0), dOuts = Seq(0.5), ms = Seq(0.60, 0.65, 0.70, 0.75, 0.80, 0.90, 0.95, 0.98, 0.99))
    case other => throw new IllegalArgumentException(s"unknown family $other")
  }

  /** Sorted distinct thresholds for one evaluator — the edges at which
    * [[ColumnProfile]] counts a column's distances (DESIGN §5).
    */
  def thresholds(eval: DomainEval): Array[Double] = {
    val g = gridFor(eval)
    (g.dIns ++ g.dOuts).distinct.sorted.toArray
  }

  /** One candidate; threshold indices refer to its plan's thresholds. */
  final case class Candidate(
      idx: Int,
      evalId: String,
      dIn: Double,
      dOut: Double,
      m: Double,
      dInIdx: Int,
      dOutIdx: Int,
  ) {
    def toSdc(confidence: Double): Sdc = Sdc(evalId, dIn, dOut, m, confidence)
  }

  /** Per-evaluator plan: evaluator + bin edges + its candidates. */
  final case class EvalPlan(eval: DomainEval, thresholds: Array[Double], candidates: IndexedSeq[Candidate])

  /** Enumerate the full candidate set over a registry, with stable global
    * candidate indices. A candidate has no confidence until it is assessed.
    */
  def enumerate(registry: EvalRegistry): IndexedSeq[EvalPlan] = {
    val grid = for {
      eval <- registry.all
      g = gridFor(eval)
      dIn  <- g.dIns
      dOut <- g.dOuts if dOut > dIn
      m    <- g.ms
    } yield Sdc(eval.id, dIn, dOut, m, confidence = 0.0)
    plansFor(grid, registry)((eval, _) => thresholds(eval))
  }

  /** Plans over a list of SDCs, one per evaluator in first-appearance order.
    * Each candidate's `idx` is its SDC's position in `sdcs`, and its threshold
    * indices refer to `edges(eval, its SDCs)`, which must hold its d_in and
    * d_out. [[enumerate]] lays the grid out and `AutoTest.train` lays R_all
    * out at the grid [[thresholds]]; [[SdcModel]] lays its SDCs out at their
    * own d_in and d_out.
    */
  def plansFor(sdcs: IndexedSeq[Sdc], registry: EvalRegistry)(
      edges: (DomainEval, IndexedSeq[Sdc]) => Array[Double]): IndexedSeq[EvalPlan] = {
    val members = sdcs.indices.groupBy(i => sdcs(i).evalId)
    sdcs.map(_.evalId).distinct.map { evalId =>
      val eval = registry.byId.getOrElse(evalId,
        throw new IllegalArgumentException(s"SDC references unknown evaluator $evalId"))
      val idxs = members(evalId)
      val ts = edges(eval, idxs.map(sdcs))
      EvalPlan(eval, ts, idxs.map { i =>
        val s = sdcs(i)
        Candidate(i, evalId, s.dIn, s.dOut, s.m, dInIdx = ts.indexWhere(_ == s.dIn), dOutIdx = ts.indexWhere(_ == s.dOut))
      })
    }
  }

  def totalCandidates(plans: Seq[EvalPlan]): Int = plans.iterator.map(_.candidates.size).sum
}
