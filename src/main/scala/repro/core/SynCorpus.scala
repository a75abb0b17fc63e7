package repro.core

import org.apache.spark.sql.SparkSession
import repro.corpus.TableColumn
import repro.core.CandidateGen.EvalPlan
import repro.util.{Det, Par}

/** Distant-supervision recall estimation (paper Sec 5.3).
  *
  * C_syn: each synthetic column C(v^e) = C ∪ {v^e} takes a corpus column C
  * and injects one value v^e sampled from a column of a *different*
  * `domainTag`. The paper draws v^e from any other column, accepting ~3%
  * mislabels; this ground-truth filter departs from it (ROADMAP item 7).
  *
  * D(r) (Eq 10) is the set of synthetic columns whose injected error r
  * detects: r's pre-condition holds on C(v^e) and f_t(v^e) > d_out.
  */
object SynCorpus {

  /** One synthetic column: a clean base column plus one injected error. */
  final case class SynColumn(synId: Int, baseColId: String, baseValues: Seq[String], errValue: String)

  /** Build C_syn from a corpus (deterministic in the seed). */
  def generate(corpus: Seq[TableColumn], nSyn: Int, seed: Long): IndexedSeq[SynColumn] = {
    val cols = corpus.toIndexedSeq
    require(cols.size >= 2, "need at least 2 corpus columns for C_syn")
    val out = IndexedSeq.newBuilder[SynColumn]
    var id = 0
    var attempt = 0
    val maxAttempts = nSyn * 10
    while (id < nSyn && attempt < maxAttempts) {
      val s = Det.combine(seed, attempt.toLong)
      val base = cols(Det.nextInt(Det.combine(s, 1), cols.size))
      val other = cols(Det.nextInt(Det.combine(s, 2), cols.size))
      attempt += 1
      if (other.domainTag != base.domainTag && other.values.nonEmpty) {
        val ve = other.values(Det.nextInt(Det.combine(s, 3), other.values.size))
        if (!base.values.contains(ve)) {
          out += SynColumn(id, base.colId, base.values, ve)
          id += 1
        }
      }
    }
    out.result()
  }

  /** D(r): (synId, candIdx) detection pairs, in C_syn order. The values of
    * C_syn get their codes on the driver ([[ValueCodes]]); `AutoTest.train`
    * reuses the corpus' code table through [[detect]] instead. No Spark job
    * runs: `spark` is kept for the callers' signature.
    */
  def detections(spark: SparkSession, syn: Seq[SynColumn],
                 plans: IndexedSeq[EvalPlan]): IndexedSeq[(Int, Int)] =
    detect(syn, ValueCodes(syn.iterator.flatMap(sc => sc.baseValues :+ sc.errValue), plans), plans)

  /** D(r) from codes, every C_syn value having one. Per synthetic column and
    * evaluator the base values are profiled ([[ColumnProfile.fromCodes]]) and
    * each candidate is decided on v^e's code: post-condition `f_t(v^e) > d_out`,
    * which is `code > dOutIdx` since d_out is the edge at dOutIdx, and
    * pre-condition over the n+1 values ([[ColumnProfile.coversWith]]). The
    * synthetic columns are decided in parallel, in C_syn order ([[Par]]).
    */
  private[core] def detect(syn: Seq[SynColumn], codes: ValueCodes,
                           plans: IndexedSeq[EvalPlan]): IndexedSeq[(Int, Int)] = {
    val rows = plans.map(p => codes.row(p.eval))
    // passing(k)(code): plan k's candidates whose post-condition holds on a v^e with that code
    val passing = plans.map(p => Array.tabulate(p.thresholds.length + 1)(b => p.candidates.filter(_.dOutIdx < b)))
    Par.flatMapInOrder(syn) { sc =>
      val base = codes.ids(sc.baseValues)
      val err = codes.id(sc.errValue)
      val out = IndexedSeq.newBuilder[(Int, Int)]
      plans.indices.foreach { k =>
        val code = rows(k)(err).toInt
        val cands = passing(k)(code)
        if (cands.nonEmpty) {
          val profile = ColumnProfile.fromCodes(rows(k), base, plans(k).thresholds.length)
          cands.foreach { c => if (profile.coversWith(code, c.dInIdx, c.m)) out += ((sc.synId, c.idx)) }
        }
      }
      out.result()
    }
  }
}
