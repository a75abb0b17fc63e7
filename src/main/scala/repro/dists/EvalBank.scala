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
  *
  * The bank keeps no state between calls, so one bank may serve several
  * threads at once.
  */
final class EvalBank(evals: IndexedSeq[DomainEval]) {

  /** Each embedding model with the evaluator rows and centroid vectors it
    * serves, in first-appearance order.
    */
  private val byModel: Array[(SynthEmbedding, Array[Int], Array[Array[Double]])] = {
    val embedded = evals.zipWithIndex.collect { case (e: EmbeddingCentroidEval, i) => (e, i) }
    embedded.map(_._1.emb).distinct.map { emb =>
      val mine = embedded.filter(_._1.emb eq emb)
      (emb, mine.map(_._2).toArray, mine.map(_._1.centroidVec).toArray)
    }.toArray
  }

  /** The rows of the CTA classifiers, and their bank. */
  private val (ctaRows, ctaBank): (Array[Int], CtaClassifier.Bank) = {
    val c = evals.zipWithIndex.collect { case (e: CtaClassifier, i) => (i, e) }
    val rows = c.map(_._1).toArray
    (rows, new CtaClassifier.Bank(c.map(_._2), rows))
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
  private val perValueEvals: Array[DomainEval] = perValue.map(evals(_))

  private val allRows: Array[Boolean] = Array.fill(evals.size)(true)

  /** evaluators × values distance matrix. */
  def distances(values: Array[String]): Array[Array[Double]] = {
    val out = Array.fill(evals.size)(new Array[Double](values.length))
    distancesInto(values, 0, values.length, allRows, out)
    out
  }

  /** Writes `out(i)(j) = evals(i).distance(values(j))` for every row i with
    * `rows(i)` and every j in [from, until), and leaves the rest of `out` as
    * it is. A family's shared work on a value (its CTA features, its
    * generalized pattern, its embedding per model) is done only while one of
    * the rows it serves is in `rows`. The single-column pass of
    * `core.SdcModel` calls it once per value, hence plain loops, no closures.
    */
  def distancesInto(values: Array[String], from: Int, until: Int, rows: Array[Boolean],
                    out: Array[Array[Double]]): Unit = {
    var p = 0
    while (p < perValue.length) {
      val i = perValue(p)
      if (rows(i)) {
        val e = perValueEvals(p); val row = out(i)
        var j = from
        while (j < until) { row(j) = e.distance(values(j)); j += 1 }
      }
      p += 1
    }
    if (anyOf(ctaRows, rows)) {
      ctaBank.scoresInto(values, from, until, rows, out)
      var k = 0
      while (k < ctaRows.length) {
        val i = ctaRows(k)
        if (rows(i)) {
          val row = out(i)
          var j = from
          while (j < until) { row(j) = 1.0 - row(j); j += 1 }
        }
        k += 1
      }
    }
    if (anyOf(patRows, rows)) {
      var j = from
      while (j < until) {
        val g = Patterns.generalize(values(j))
        var k = 0
        while (k < patRows.length) {
          if (rows(patRows(k))) out(patRows(k))(j) = if (g == patterns(k)) 0.0 else 1.0
          k += 1
        }
        j += 1
      }
    }
    var m = 0
    while (m < byModel.length) {
      val emb = byModel(m)._1; val modelRows = byModel(m)._2; val centroids = byModel(m)._3
      if (anyOf(modelRows, rows)) {
        var j = from
        while (j < until) {
          val vec = emb.embed(values(j))
          var k = 0
          while (k < modelRows.length) {
            if (rows(modelRows(k))) out(modelRows(k))(j) = LinAlg.euclidean(vec, centroids(k))
            k += 1
          }
          j += 1
        }
      }
      m += 1
    }
  }

  private def anyOf(family: Array[Int], rows: Array[Boolean]): Boolean = {
    var k = 0
    while (k < family.length && !rows(family(k))) k += 1
    k < family.length
  }
}
