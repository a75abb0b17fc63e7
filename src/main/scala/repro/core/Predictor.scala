package repro.core

import org.apache.spark.sql.SparkSession
import repro.corpus.TableColumn
import repro.core.CandidateGen.{Candidate, EvalPlan}
import repro.dists.{EvalBank, EvalRegistry}
import repro.util.Par

/** One error prediction: `value` in column `colId` is flagged with the given
  * confidence (max over all triggering SDCs, Example 3).
  */
final case class Prediction(colId: String, value: String, confidence: Double)

/** An executable set of SDCs (the online-prediction stage, paper Fig 5).
  *
  * The SDCs are laid out as [[CandidateGen.EvalPlan]]s
  * ([[CandidateGen.plansFor]]), in kernel order: by evaluator id, then
  * pre-condition (d_in, m), then model order. Each evaluator's edges are the
  * sorted, distinct d_in and d_out of its SDCs, so a value's edge-bucket code
  * decides both conditions (DESIGN §5). A column is scored value by value
  * with the model's own [[EvalBank]], and an evaluator is scored no more once
  * none of its pre-conditions can hold on the column
  * ([[ColumnProfile.inDomain]]). Each evaluator left is profiled once, by the
  * factory the corpus passes use ([[ColumnProfile.fromCodes]]), so every
  * pre-condition is an O(1) lookup however many SDCs share it (the
  * Appendix B.2 dedup).
  * [[predictColumn]], [[explainColumn]] and, per column,
  * [[Predictor.predict]] all run this one pass.
  */
final class SdcModel(val sdcs: IndexedSeq[Sdc], registry: EvalRegistry) {

  /** The SDCs in kernel order; candidate `idx` indexes it. */
  private val ordered: IndexedSeq[Sdc] = sdcs.sortBy(s => (s.evalId, s.dIn, s.m))

  private val plans: IndexedSeq[EvalPlan] =
    CandidateGen.plansFor(ordered, registry)((_, ss) => ss.flatMap(s => Seq(s.dIn, s.dOut)).distinct.sorted.toArray)
  plans.foreach(p => ValueCodes.requireByteCodes(p.eval, p.thresholds.length))

  /** Built on the first prediction: a model only counted (`nPreConditions`) never builds it. */
  private lazy val bank = new EvalBank(plans.map(_.eval))

  def size: Int = sdcs.size

  /** Distinct pre-conditions after dedup (latency driver, Appendix B.2). */
  def nPreConditions: Int = plans.iterator.map(_.candidates.map(c => (c.dInIdx, c.m)).distinct.size).sum

  /** Each plan's candidates, for the kernel's loop. */
  private val candidates: Array[Array[Candidate]] = plans.map(_.candidates.toArray).toArray

  /** Each plan's distinct pre-condition edges (its candidates' d_in
    * indices), and for each the least m of the plan's candidates at it.
    */
  private val dInEdges: Array[Array[Int]] = candidates.map(_.map(_.dInIdx).distinct)
  private val leastM: Array[Array[Double]] =
    plans.indices.map(k => dInEdges(k).map(e => candidates(k).filter(_.dInIdx == e).map(_.m).min)).toArray

  /** No candidate of plan k can cover a column of `n` values of which
    * `beyond(i)` are coded above `dInEdges(k)(i)`: more values only shrink
    * the within count, so [[ColumnProfile.inDomain]], the comparison behind
    * [[ColumnProfile.covers]], fails for good.
    */
  private def dropped(k: Int, beyond: Array[Int], n: Int): Boolean = {
    val ms = leastM(k)
    var i = 0
    while (i < ms.length && !ColumnProfile.inDomain(n - beyond(i), n, ms(i))) i += 1
    i == ms.length
  }

  /** The prediction kernel: flagged value -> max confidence over the SDCs
    * that trigger on the column `values`.
    *
    * The values are coded with the model's bank value by value. Each plan
    * counts the values coded above each of its d_in edges and is dropped
    * once [[dropped]] holds: it gets no more distance calls, and none of its
    * SDCs can cover the column. Each plan left is profiled from its codes
    * with the corpus passes' factory ([[ColumnProfile.fromCodes]], the ids
    * being the column's positions), and each of its SDCs whose pre-condition
    * holds is passed to `covered`, in kernel order; SDCs that share a
    * pre-condition are adjacent, so it is looked up once for them. The
    * output does not depend on the order of the values.
    */
  private def decideColumn(values: Seq[String], covered: Sdc => Unit): Map[String, Double] = {
    val arr = values.toArray
    val n = arr.length
    val beyond = dInEdges.map(es => new Array[Int](es.length))
    val live = Array.fill(plans.size)(true)
    var nLive = plans.size
    val dists = Array.fill(plans.size)(new Array[Double](n))
    val rows = Array.fill(plans.size)(new Array[Byte](n))
    var j = 0
    while (j < n && nLive > 0) {
      bank.distancesInto(arr, j, j + 1, live, dists)
      var k = 0
      while (k < plans.size) {
        if (live(k)) {
          val code = ColumnProfile.bucket(dists(k)(j), plans(k).thresholds)
          rows(k)(j) = code.toByte
          val es = dInEdges(k); val b = beyond(k)
          var moved = false
          var i = 0
          while (i < es.length) { if (code > es(i)) { b(i) += 1; moved = true }; i += 1 }
          if (moved && dropped(k, b, n)) { live(k) = false; nLive -= 1 }
        }
        k += 1
      }
      j += 1
    }
    val acc = scala.collection.mutable.Map.empty[String, Double]
    val ids = Array.range(0, n)
    var k = 0
    while (k < plans.size) {
      if (live(k)) {
        val cands = candidates(k)
        val row = rows(k)
        val profile = ColumnProfile.fromCodes(row, ids, plans(k).thresholds.length)
        var holds = false
        var i = 0
        while (i < cands.length) {
          val c = cands(i)
          if (i == 0 || c.dInIdx != cands(i - 1).dInIdx || c.m != cands(i - 1).m) holds = profile.covers(c.dInIdx, c.m)
          if (holds) {
            val sdc = ordered(c.idx)
            covered(sdc)
            val conf = sdc.confidence
            j = 0
            while (j < n) {
              if (row(j) > c.dOutIdx && acc.getOrElse(arr(j), -1.0) < conf) acc(arr(j)) = conf
              j += 1
            }
          }
          i += 1
        }
      }
      k += 1
    }
    acc.toMap
  }

  /** Predict errors in one column: flagged value -> max confidence. */
  def predictColumn(values: Seq[String]): Map[String, Double] = decideColumn(values, _ => ())

  /** [[predictColumn]] together with the SDCs whose pre-condition holds on
    * the column (the "covered by" relation of Sec 5.2, in kernel order), from
    * one pass: Table 9 reports both.
    */
  def explainColumn(values: Seq[String]): SdcModel.Explanation = {
    val covering = IndexedSeq.newBuilder[Sdc]
    val flagged = decideColumn(values, covering += _)
    SdcModel.Explanation(covering.result(), flagged)
  }
}

object SdcModel {

  /** A column's covering SDCs and its flagged values (value -> confidence). */
  final case class Explanation(covering: IndexedSeq[Sdc], flagged: Map[String, Double])
}

object Predictor {

  /** Batch prediction: [[SdcModel.predictColumn]] on each column, in
    * parallel ([[Par]]). The predictions come in column order, each column's
    * in the order `predictColumn` returns them. No Spark job runs: `spark` is
    * kept for the callers' signature.
    */
  def predict(spark: SparkSession, model: SdcModel, cols: Seq[TableColumn]): IndexedSeq[Prediction] =
    Par.flatMapInOrder(cols)(c => model.predictColumn(c.values).map { case (v, conf) => Prediction(c.colId, v, conf) })
}
