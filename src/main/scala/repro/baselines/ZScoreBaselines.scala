package repro.baselines

import repro.corpus.TableColumn
import repro.dists.{DomainEval, EvalBank, FunctionEval, Patterns, SynthEmbedding}
import repro.linalg.LinAlg

/** Column-type-detection baselines (paper Sec 6.2, first group): each method
  * computes the domain-evaluation score distribution f_t(v) over a column
  * and flags outliers by z-score, exactly as the paper evaluates them.
  *
  * These reproduce the Example 2 failure mode: uncommon valid values
  * ("omayra") receive extreme scores and become false positives, because the
  * macro-level type detectors are not calibrated for micro-level decisions.
  */
object ZScoreBaselines {

  /** z-scores of a distance vector; empty when the column is degenerate. */
  private[baselines] def zScores(d: Array[Double]): Array[Double] = {
    val n = d.length
    if (n < 3) return Array.empty
    val mean = d.sum / n
    val varr = d.map(x => (x - mean) * (x - mean)).sum / n
    val sd = math.sqrt(varr)
    if (sd < 1e-12) Array.empty else d.map(x => (x - mean) / sd)
  }

  private def detectWith(values: Seq[String], dists: Array[Double]): Seq[(String, Double)] = {
    val z = zScores(dists)
    if (z.isEmpty) Seq.empty
    else values.indices.collect { case i if z(i) > 0 => (values(i), z(i)) }
  }

  /** Bank-of-evaluators detector: pick the best-fitting type for the column
    * (minimum mean distance), then z-score its distance distribution. The
    * column's distances come from one [[EvalBank]] over the bank, as in the
    * SDC passes; the best type is the row with the least sum, summed left to
    * right, the first such row on a tie.
    */
  final class BankZScore(val name: String, bank: IndexedSeq[DomainEval]) extends ErrorDetector {
    private val evalBank = new EvalBank(bank)
    override def detect(col: TableColumn): Seq[(String, Double)] = {
      if (col.values.size < 3 || bank.isEmpty) return Seq.empty
      val d = evalBank.distances(col.values.toArray)
      detectWith(col.values, d.minBy(_.foldLeft(0.0)(_ + _)))
    }
  }

  /** Embedding detector: distance of each value to the column's mean vector
    * in the embedding space, z-scored.
    */
  final class EmbeddingZScore(val name: String, emb: SynthEmbedding) extends ErrorDetector {
    override def detect(col: TableColumn): Seq[(String, Double)] = {
      if (col.values.size < 3) return Seq.empty
      val vecs = col.values.map(emb.embed)
      val mu = LinAlg.mean(vecs)
      detectWith(col.values, vecs.map(v => LinAlg.euclidean(v, mu)).toArray)
    }
  }

  /** Regex detector: 0/1 distance to the column's dominant pattern, z-scored. */
  final class RegexZScore extends ErrorDetector {
    override val name = "Regex"
    override def detect(col: TableColumn): Seq[(String, Double)] = {
      if (col.values.size < 3) return Seq.empty
      val pats = col.values.map(Patterns.generalize)
      val dominant = Patterns.dominant(pats)._1
      detectWith(col.values, pats.map(p => if (p == dominant) 0.0 else 1.0).toArray)
    }
  }

  /** The `validate_*` function evaluators of the given kinds, in registry
    * order: DataPrep-sim's parse/clean-style bank and Validators-sim's
    * web/format bank.
    */
  def validatorBank(kinds: String*): IndexedSeq[DomainEval] =
    FunctionEval.allEvals.filter(e => kinds.exists(k => e.id == s"fun:validate_$k"))
}
