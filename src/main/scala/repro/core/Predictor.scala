package repro.core

import org.apache.spark.sql.SparkSession
import repro.corpus.TableColumn
import repro.dists.{DomainEval, EvalBank, EvalRegistry}

/** One error prediction: `value` in column `colId` is flagged with the given
  * confidence (max over all triggering SDCs, Example 3).
  */
final case class Prediction(colId: String, value: String, confidence: Double)

/** An executable set of SDCs (the online-prediction stage, paper Fig 5).
  *
  * Applies the Appendix B.2 optimisation: SDCs sharing a pre-condition
  * (evalId, d_in, m) are grouped so each pre-condition — and each
  * evaluator's distance vector — is computed once per column, all of them
  * by one [[EvalBank]].
  */
final class SdcModel(val sdcs: IndexedSeq[Sdc], registry: EvalRegistry) extends Serializable {

  /** evaluator -> its sorted distinct d_in edges -> pre-condition groups
    * (d_in edge index, m) -> member SDCs
    */
  private val byEval: IndexedSeq[(DomainEval, Array[Double], IndexedSeq[(Int, Double, IndexedSeq[Sdc])])] =
    sdcs.groupBy(_.evalId).toIndexedSeq.sortBy(_._1).map { case (evalId, ss) =>
      val eval = registry.byId.getOrElse(evalId,
        throw new IllegalArgumentException(s"model references unknown evaluator $evalId"))
      val edges = ss.map(_.dIn).distinct.sorted.toArray
      val groups = ss.groupBy(s => (s.dIn, s.m)).toIndexedSeq.sortBy(_._1).map {
        case ((dIn, m), members) => (edges.indexOf(dIn), m, members)
      }
      (eval, edges, groups)
    }

  /** One bank over byEval's evaluators, in byEval order. */
  private val bank = new EvalBank(byEval.map(_._1))

  def size: Int = sdcs.size

  /** Distinct pre-conditions after dedup (latency driver, Appendix B.2). */
  def nPreConditions: Int = byEval.iterator.map(_._3.size).sum

  /** Calls `f` with each group of SDCs whose shared pre-condition holds on
    * the column, together with that evaluator's distances over the column.
    */
  private def foreachCovered(values: Array[String])(f: (Array[Double], IndexedSeq[Sdc]) => Unit): Unit = {
    val dists = bank.distances(values)
    byEval.indices.foreach { k =>
      val (_, edges, groups) = byEval(k)
      val profile = new ColumnProfile(dists(k), edges)
      groups.foreach { case (edge, m, members) => if (profile.covers(edge, m)) f(dists(k), members) }
    }
  }

  /** SDCs whose pre-condition holds on the column (the "covered by" relation
    * of Sec 5.2 — used for Table 9's column-level coverage reporting).
    */
  def coveringSdcs(values: Seq[String]): IndexedSeq[Sdc] = {
    val out = IndexedSeq.newBuilder[Sdc]
    foreachCovered(values.toArray)((_, members) => out ++= members)
    out.result()
  }

  /** Predict errors in one column: flagged value -> max confidence. */
  def predictColumn(values: Seq[String]): Map[String, Double] = {
    val arr = values.toArray
    val acc = scala.collection.mutable.Map.empty[String, Double]
    foreachCovered(arr) { (dists, members) =>
      members.foreach { s =>
        var j = 0
        while (j < arr.length) {
          if (dists(j) > s.dOut) {
            val v = arr(j)
            if (acc.getOrElse(v, -1.0) < s.confidence) acc(v) = s.confidence
          }
          j += 1
        }
      }
    }
    acc.toMap
  }
}

object Predictor {

  def predictLocal(model: SdcModel, col: TableColumn): Seq[Prediction] =
    model.predictColumn(col.values).toSeq.map { case (v, c) => Prediction(col.colId, v, c) }

  /** Distributed prediction over many columns. */
  def predict(spark: SparkSession, model: SdcModel, cols: Seq[TableColumn]): IndexedSeq[Prediction] = {
    val bc = spark.sparkContext.broadcast(model)
    spark.sparkContext
      .parallelize(cols, math.max(1, math.min(64, cols.size / 16)))
      .flatMap { col =>
        bc.value.predictColumn(col.values).map { case (v, c) => Prediction(col.colId, v, c) }
      }
      .collect()
      .toIndexedSeq
  }
}
