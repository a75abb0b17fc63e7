package repro.core

import java.util.Arrays
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
  * for every candidate of that evaluator, counted per (d_in, d_out) cell
  * ([[count]]). An empty column covers nothing and triggers nothing, so it
  * counts as ncnt and the four cells sum to |C|.
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

  /** Contingency counts of `corpus`, every value of which has a code.
    *
    * An evaluator's candidates share a few d_in, d_out and m (at most 4, 4
    * and 9 on the grid), so each column is counted once per (d_in, d_out)
    * cell, not once per candidate: per d_in, r = how many of the ascending
    * m the column covers ([[ColumnProfile.coveredMs]]); per d_out, whether
    * it triggers. Cell (d_in, d_out, triggered, r) gets one increment. A
    * candidate whose m is the q-th is covered on exactly the columns with
    * r > q, so its four counts are sums of its cell's r-histogram. The plans
    * own disjoint count slots, so they are counted in parallel.
    */
  private[core] def count(corpus: Seq[TableColumn], codes: ValueCodes,
                          plans: IndexedSeq[EvalPlan]): Array[Long] = {
    val counts = new Array[Long](CandidateGen.totalCandidates(plans) * 4)
    val columns = corpus.map(col => codes.ids(col.values)).toArray
    IntStream.range(0, plans.size).parallel().forEach { k =>
      val plan = plans(k)
      val row = codes.row(plan.eval)
      val nEdges = plan.thresholds.length
      val cands = plan.candidates
      val dIns = cands.map(_.dInIdx).distinct.sorted.toArray
      val dOuts = cands.map(_.dOutIdx).distinct.sorted.toArray
      val ms = Arrays.stream(cands.map(_.m).toArray).distinct().sorted().toArray
      val nR = ms.length + 1
      // cells(((a * dOuts.length + o) * 2 + t) * nR + r), t = 0 when triggered
      val cells = new Array[Int](dIns.length * dOuts.length * 2 * nR)
      val t = new Array[Int](dOuts.length)
      columns.foreach { ids =>
        val profile = ColumnProfile.fromCodes(row, ids, nEdges)
        var o = 0
        while (o < dOuts.length) { t(o) = if (profile.triggers(dOuts(o))) 0 else 1; o += 1 }
        var a = 0
        while (a < dIns.length) {
          val r = profile.coveredMs(dIns(a), ms)
          o = 0
          while (o < dOuts.length) { cells(((a * dOuts.length + o) * 2 + t(o)) * nR + r) += 1; o += 1 }
          a += 1
        }
      }
      cands.foreach { c =>
        val cell = (Arrays.binarySearch(dIns, c.dInIdx) * dOuts.length +
          Arrays.binarySearch(dOuts, c.dOutIdx)) * 2 * nR
        val q = Arrays.binarySearch(ms, c.m)
        for (tr <- 0 until 2; r <- 0 until nR)
          counts(c.idx * 4 + (if (r > q) 0 else 2) + tr) += cells(cell + tr * nR + r)
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
