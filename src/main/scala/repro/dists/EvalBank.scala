package repro.dists

import repro.linalg.LinAlg

/** A fixed list of evaluators applied to whole columns: row i of
  * [[distances]] holds `evals(i).distance(v)` for every value v, bit for bit.
  *
  * Embedding evaluators (Sec 5.1: the distance from v to one sampled
  * centroid value) are grouped by their embedding model, so each value is
  * embedded once per model and then compared against every centroid of that
  * model. CTA classifiers are scored together by one [[CtaClassifier.Bank]]:
  * each value is normalized, hashed and split into trigrams once for all of
  * them. Each value is generalized once for every [[PatternEval]]
  * ([[Patterns.generalize]]) and compared with each one's pattern. Every
  * other evaluator calls [[DomainEval.distance]] per value.
  */
final class EvalBank(evals: IndexedSeq[DomainEval]) {

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

  /** The rows of the CTA classifiers, and their bank. */
  private val (ctaRows, ctaBank): (Array[Int], CtaClassifier.Bank) = {
    val c = evals.zipWithIndex.collect { case (e: CtaClassifier, i) => (i, e) }
    (c.map(_._1).toArray, new CtaClassifier.Bank(c.map(_._2)))
  }

  /** The rows of the pattern evaluators, and their patterns. */
  private val (patRows, patterns): (Array[Int], Array[String]) = {
    val p = evals.zipWithIndex.collect { case (e: PatternEval, i) => (i, e.pattern) }
    (p.map(_._1).toArray, p.map(_._2).toArray)
  }

  private val perValue: Array[Int] = evals.indices.filter(i => evals(i) match {
    case _: EmbeddingCentroidEval | _: CtaClassifier | _: PatternEval => false
    case _                                                            => true
  }).toArray

  /** evaluators × values distance matrix. */
  def distances(values: Array[String]): Array[Array[Double]] = {
    val n = values.length
    val out = Array.fill(evals.size)(new Array[Double](n))
    perValue.foreach { i =>
      val e = evals(i); val row = out(i)
      var j = 0
      while (j < n) { row(j) = e.distance(values(j)); j += 1 }
    }
    if (ctaRows.nonEmpty) {
      val scores = ctaBank.scores(values)
      var k = 0
      while (k < ctaRows.length) {
        val s = scores(k); val row = out(ctaRows(k))
        var j = 0
        while (j < n) { row(j) = 1.0 - s(j); j += 1 }
        k += 1
      }
    }
    if (patRows.nonEmpty) {
      var j = 0
      while (j < n) {
        val g = Patterns.generalize(values(j))
        var k = 0
        while (k < patRows.length) { out(patRows(k))(j) = if (g == patterns(k)) 0.0 else 1.0; k += 1 }
        j += 1
      }
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
