package repro.core

import java.util.stream.IntStream

import repro.core.CandidateGen.EvalPlan
import repro.corpus.TableColumn
import repro.dists.{DomainEval, EvalBank, EvalRegistry}

/** Reference for [[SdcModel]]: the model written on its own layout, with
  * SDCs grouped per evaluator into pre-condition groups (d_in, m) and a
  * separate covering pass. [[SdcModel]] lays its SDCs out as
  * [[CandidateGen.EvalPlan]]s instead and must give equal predictions,
  * batch predictions, covering lists and pre-condition counts
  * (`SdcModelEquivalenceSpec`).
  */
final class GroupedSdcModel(val sdcs: IndexedSeq[Sdc], registry: EvalRegistry) {

  import GroupedSdcModel.{Group, Rules}

  private val byEval: IndexedSeq[Rules] =
    sdcs.groupBy(_.evalId).toIndexedSeq.sortBy(_._1).map { case (evalId, ss) =>
      val eval = registry.byId.getOrElse(evalId,
        throw new IllegalArgumentException(s"model references unknown evaluator $evalId"))
      val edges = ss.flatMap(s => Seq(s.dIn, s.dOut)).distinct.sorted.toArray
      ValueCodes.requireByteCodes(eval, edges.length)
      val groups = ss.groupBy(s => (s.dIn, s.m)).toIndexedSeq.sortBy(_._1).map {
        case ((dIn, m), members) => Group(edges.indexOf(dIn), m, members, members.map(s => edges.indexOf(s.dOut)).toArray)
      }
      Rules(eval, edges, groups)
    }

  /** The evaluators the SDCs reference, and each one's edges, in kernel order. */
  private[core] val evals: IndexedSeq[DomainEval] = byEval.map(_.eval)
  private[core] val edges: IndexedSeq[Array[Double]] = byEval.map(_.edges)

  /** Built on the first single-column call: batch prediction codes its
    * values with the bank of its [[ValueCodes]] pass instead.
    */
  private lazy val bank = new EvalBank(evals)

  def size: Int = sdcs.size

  /** Distinct pre-conditions after dedup (latency driver, Appendix B.2). */
  def nPreConditions: Int = byEval.iterator.map(_.groups.size).sum

  /** Codes of a column's own values, one row per evaluator, indexed by position. */
  private def codes(values: Array[String]): IndexedSeq[Array[Byte]] = {
    val dists = bank.distances(values)
    byEval.indices.map { k =>
      val row = new Array[Byte](values.length)
      ValueCodes.encode(dists(k), edges(k), row, 0)
      row
    }
  }

  /** Calls `f` with each pre-condition group that holds on a column, and
    * with its evaluator's codes. The column is given as value ids into
    * `codes(k)`, the codes of evaluator k.
    */
  private def foreachCovered(ids: Array[Int], codes: IndexedSeq[Array[Byte]])(f: (Array[Byte], Group) => Unit): Unit =
    byEval.indices.foreach { k =>
      val rules = byEval(k)
      val profile = ColumnProfile.fromCodes(codes(k), ids, rules.edges.length)
      rules.groups.foreach(g => if (profile.covers(g.dInIdx, g.m)) f(codes(k), g))
    }

  /** The prediction kernel: flagged value -> max confidence over the SDCs
    * that trigger on it, for the column `values` whose ids in `codes` are `ids`.
    */
  private[core] def decide(values: Array[String], ids: Array[Int],
                           codes: IndexedSeq[Array[Byte]]): Map[String, Double] = {
    val acc = scala.collection.mutable.Map.empty[String, Double]
    foreachCovered(ids, codes) { (row, g) =>
      var i = 0
      while (i < g.sdcs.size) {
        val conf = g.sdcs(i).confidence
        val dOutIdx = g.dOutIdx(i)
        var j = 0
        while (j < ids.length) {
          if (row(ids(j)) > dOutIdx) {
            val v = values(j)
            if (acc.getOrElse(v, -1.0) < conf) acc(v) = conf
          }
          j += 1
        }
        i += 1
      }
    }
    acc.toMap
  }

  /** SDCs whose pre-condition holds on the column (the "covered by" relation
    * of Sec 5.2 — used for Table 9's column-level coverage reporting).
    */
  def coveringSdcs(values: Seq[String]): IndexedSeq[Sdc] = {
    val arr = values.toArray
    val out = IndexedSeq.newBuilder[Sdc]
    foreachCovered(Array.range(0, arr.length), codes(arr))((_, g) => out ++= g.sdcs)
    out.result()
  }

  /** Predict errors in one column: flagged value -> max confidence. */
  def predictColumn(values: Seq[String]): Map[String, Double] = {
    val arr = values.toArray
    decide(arr, Array.range(0, arr.length), codes(arr))
  }
}

object GroupedSdcModel {

  /** SDCs sharing the pre-condition (d_in, m), with each one's d_out, as
    * indices into their evaluator's edges.
    */
  private final case class Group(dInIdx: Int, m: Double, sdcs: IndexedSeq[Sdc], dOutIdx: Array[Int])

  /** One evaluator's sorted, distinct edges and its pre-condition groups. */
  private final case class Rules(eval: DomainEval, edges: Array[Double], groups: IndexedSeq[Group])

  /** Batch prediction with this model's kernel, the reference for
    * `SdcModel.predictions`: one [[ValueCodes]] pass at the model's evaluators
    * and edges (passed as plans without candidates), then the columns
    * decided in column order.
    */
  def predict(model: GroupedSdcModel, cols: Seq[TableColumn]): IndexedSeq[Prediction] = {
    val plans = model.evals.indices.map(k => EvalPlan(model.evals(k), model.edges(k), IndexedSeq.empty))
    val codes = ValueCodes(cols.iterator.flatMap(_.values), plans)
    val rows = model.evals.map(codes.row)
    val columns = cols.toIndexedSeq
    val byCol = new Array[Iterable[Prediction]](columns.size)
    IntStream.range(0, columns.size).parallel().forEach { i =>
      val col = columns(i)
      byCol(i) = model.decide(col.values.toArray, codes.ids(col.values), rows)
        .map { case (v, c) => Prediction(col.colId, v, c) }
    }
    byCol.iterator.flatten.toIndexedSeq
  }
}
