package repro.dists

import repro.linalg.LinAlg

/** A fixed list of evaluators applied to whole columns: row i of
  * [[distances]] holds `evals(i).distance(v)` for every value v, bit for bit.
  *
  * Embedding evaluators (Sec 5.1: the distance from v to one sampled
  * centroid value) are grouped by their embedding model, so each value is
  * embedded once per model and then compared against every centroid of that
  * model. Every other evaluator calls [[DomainEval.distance]] per value.
  */
final class EvalBank(evals: IndexedSeq[DomainEval]) extends Serializable {

  /** Each embedding model with the evaluator rows and centroid vectors it
    * serves, in first-appearance order.
    */
  private val byModel: IndexedSeq[(SynthEmbedding, Array[Int], Array[Array[Double]])] = {
    val embedded = evals.zipWithIndex.collect { case (e: EmbeddingCentroidEval, i) => (e, i) }
    embedded.map(_._1.emb).distinct.map { emb =>
      val mine = embedded.filter(_._1.emb eq emb)
      (emb, mine.map(_._2).toArray, mine.map(_._1.centroidVec).toArray)
    }
  }

  private val perValue: Array[Int] =
    evals.indices.filterNot(i => evals(i).isInstanceOf[EmbeddingCentroidEval]).toArray

  /** evaluators × values distance matrix. */
  def distances(values: Array[String]): Array[Array[Double]] = {
    val n = values.length
    val out = Array.fill(evals.size)(new Array[Double](n))
    perValue.foreach { i =>
      val e = evals(i); val row = out(i)
      var j = 0
      while (j < n) { row(j) = e.distance(values(j)); j += 1 }
    }
    byModel.foreach { case (emb, rows, centroids) =>
      var j = 0
      while (j < n) {
        val vec = emb.embed(values(j))
        var k = 0
        while (k < rows.length) { out(rows(k))(j) = LinAlg.euclidean(vec, centroids(k)); k += 1 }
        j += 1
      }
    }
    out
  }
}
