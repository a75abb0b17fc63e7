package repro.core

import java.util.stream.IntStream

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.corpus.TableColumn
import repro.core.CandidateGen.EvalPlan

/** Candidate quality assessment over a corpus (paper Sec 5.2).
  *
  * For every candidate r we compute the Table 2 contingency table
  * (covered × triggered over corpus columns) on the driver, from the
  * corpus' [[ValueCodes]]: each column is a list of value ids, and per
  * evaluator its codes are counted at the evaluator's grid edges
  * ([[ColumnProfile.fromCodes]]), from which (covered, triggered) follows
  * for every candidate of that evaluator. An empty column covers nothing and
  * triggers nothing, so it counts as ncnt and the four cells sum to |C|.
  *
  * The driver then applies the statistical gates — Cohen's h effect size,
  * chi-squared significance, Appendix B.1 coverage pruning — and calibrates
  * confidence (Wilson lower bound or the plain-ratio ablation).
  */
object Assessment {

  /** Table 2 contingency counts for one candidate. */
  final case class ContingencyCounts(ct: Long, cnt: Long, nct: Long, ncnt: Long) {
    /** covered columns */
    def nCovered: Long = ct + cnt
    /** ρ(r): triggered-rate among covered columns */
    def rho: Double = if (nCovered == 0) 0.0 else ct.toDouble / nCovered
    /** ρ̄(r): triggered-rate among non-covered columns */
    def rhoBar: Double = {
      val n = nct + ncnt
      if (n == 0) 0.0 else nct.toDouble / n
    }
  }

  /** A candidate that passed the statistical tests, with calibrated stats. */
  final case class AssessedCandidate(
      sdc: Sdc,
      counts: ContingencyCounts,
      fpr: Double,
      effectSize: Double,
      pValue: Double,
  )

  /** Cohen's h gate: minimum effect size (Eq 8). */
  val HThreshold = 0.8

  /** Chi-squared gate: maximum p-value. */
  val PThreshold = 0.05

  /** Appendix B.1: prune candidates whose confidence upper bound cannot
    * reach this level (equivalently a min-coverage cut).
    */
  val MinCoverageConfidence = 0.9

  /** The corpus' base error rate (paper Sec 5.2: "~98% of columns are
    * error-free", i.e. ~2% dirty). Triggers on genuinely-dirty corpus
    * columns are true positives, not false positives (footnote 5), so
    * the FPR estimate is debiased by this expected noise floor —
    * without it, every narrow good rule pays ~2% of its coverage
    * against the B_FPR budget and the budget binds spuriously.
    */
  val CorpusDirtyRate = 0.02

  /** Table 8 ablates the Cohen's h gate and the Wilson interval; the
    * chi-squared gate always applies.
    */
  final case class AssessConfig(useCohensH: Boolean = true, useWilson: Boolean = true)

  /** Contingency counts of a corpus Dataset: a flat array with 4 slots per
    * global candidate index, [ct, cnt, nct, ncnt]. The columns are collected
    * and their codes built on the driver ([[ValueCodes]]); `AutoTest.train`
    * shares one code table between [[count]] and the C_syn detections instead.
    */
  def contingency(spark: SparkSession, corpus: Dataset[TableColumn],
                  plans: IndexedSeq[EvalPlan]): Array[Long] = {
    val columns = corpus.collect().toIndexedSeq
    count(columns, ValueCodes(columns.iterator.flatMap(_.values), plans), plans)
  }

  /** Contingency counts of `corpus`, every value of which has a code. The
    * plans own disjoint count slots, so they are counted in parallel.
    */
  private[core] def count(corpus: Seq[TableColumn], codes: ValueCodes,
                          plans: IndexedSeq[EvalPlan]): Array[Long] = {
    val counts = new Array[Long](CandidateGen.totalCandidates(plans) * 4)
    val columns = corpus.map(col => codes.ids(col.values)).toArray
    IntStream.range(0, plans.size).parallel().forEach { k =>
      val plan = plans(k)
      val row = codes.row(plan.eval)
      val nEdges = plan.thresholds.length
      val cands = plan.candidates.toArray
      columns.foreach { ids =>
        val profile = ColumnProfile.fromCodes(row, ids, nEdges)
        var j = 0
        while (j < cands.length) {
          val c = cands(j)
          counts(c.idx * 4 + (if (profile.covers(c.dInIdx, c.m)) 0 else 2) +
            (if (profile.triggers(c.dOutIdx)) 0 else 1)) += 1
          j += 1
        }
      }
    }
    counts
  }

  /** Apply the Sec 5.2 statistical gates and calibrate confidence. */
  def assess(plans: IndexedSeq[EvalPlan], counts: Array[Long], totalCols: Long,
             cfg: AssessConfig): IndexedSeq[AssessedCandidate] = {
    val minCoverage = Stats.minCoverageFor(MinCoverageConfidence)
    val out = IndexedSeq.newBuilder[AssessedCandidate]
    plans.foreach { plan =>
      plan.candidates.foreach { c =>
        val base = c.idx * 4
        val cc = ContingencyCounts(counts(base), counts(base + 1), counts(base + 2), counts(base + 3))
        if (cc.nCovered >= minCoverage) {
          // Effect size: separation of the covered trigger-rate ρ from the
          // background ρ̄ (Eq 8; positive orientation = ρ below background).
          val h = Stats.cohensH(cc.rhoBar, cc.rho)
          val chi = Stats.chiSquared2x2(cc.ct, cc.cnt, cc.nct, cc.ncnt)
          val p = Stats.chiSquaredPValue1Dof(chi)
          if ((!cfg.useCohensH || h >= HThreshold) && p <= PThreshold) {
            val conf =
              if (cfg.useWilson) Stats.wilsonConfidence(cc.ct, cc.cnt)
              else Stats.plainConfidence(cc.ct, cc.cnt)
            if (conf > 0.0) {
              val fpr =
                if (totalCols == 0) 0.0
                else math.max(0.0, cc.ct - CorpusDirtyRate * cc.nCovered) / totalCols
              out += AssessedCandidate(c.toSdc(conf), cc, fpr, h, p)
            }
          }
        }
      }
    }
    out.result()
  }
}
