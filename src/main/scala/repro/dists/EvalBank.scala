package repro.dists

import repro.linalg.LinAlg

/** A fixed list of evaluators applied to whole columns: row i of
  * [[distances]] holds `evals(i).distance(v)` for every value v, bit for bit.
  *
  * Each value is normalized ([[DomainEval.normalize]]) once per call, and
  * that one form goes to every family that reads it: CTA, embedding and the
  * validation functions. Embedding evaluators (Sec 5.1: the distance from v
  * to one sampled centroid value) are grouped by their embedding model, so
  * each value is embedded once per model and then compared against every
  * centroid of that model. CTA classifiers are scored together by one
  * [[CtaClassifier.Bank]]: each value is hashed, split into packed trigrams
  * and looked up once for all of them. Each [[FunctionEval]] validates the
  * normalized form. Patterns read the raw value: each value is generalized
  * once for every [[PatternEval]] ([[Patterns.generalize]], which only
  * trims) and compared with each one's pattern. Any other evaluator calls
  * [[DomainEval.distance]] per value.
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

  /** The rows of the validation functions, and their evaluators. */
  private val (funRows, funEvals): (Array[Int], Array[FunctionEval]) = {
    val f = evals.zipWithIndex.collect { case (e: FunctionEval, i) => (i, e) }
    (f.map(_._1).toArray, f.map(_._2).toArray)
  }

  /** The rows of every other evaluator, which reads the raw value. */
  private val otherRows: Array[Int] = evals.indices.filter(i => evals(i) match {
    case _: EmbeddingCentroidEval | _: CtaClassifier | _: PatternEval | _: FunctionEval => false
    case _                                                                              => true
  }).toArray

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
    * the rows it serves is in `rows`. Each value is normalized
    * ([[DomainEval.normalize]]) at most once per call, and only while a CTA,
    * embedding or function row is in `rows`; patterns read the raw value.
    * Each family runs over [from, until) in turn. The single-column pass of
    * `core.SdcModel` calls it once per value, hence plain loops, no closures.
    */
  def distancesInto(values: Array[String], from: Int, until: Int, rows: Array[Boolean],
                    out: Array[Array[Double]]): Unit = {
    var norm: Array[String] = null // normalized(values, from, until), once one is needed
    var p = 0
    while (p < otherRows.length) {
      val i = otherRows(p)
      if (rows(i)) {
        val e = evals(i); val row = out(i)
        var j = from
        while (j < until) { row(j) = e.distance(values(j)); j += 1 }
      }
      p += 1
    }
    p = 0
    while (p < funRows.length) {
      val i = funRows(p)
      if (rows(i)) {
        if (norm == null) norm = normalized(values, from, until)
        val e = funEvals(p); val row = out(i)
        var j = from
        while (j < until) { row(j) = e.normalizedDistance(norm(j - from)); j += 1 }
      }
      p += 1
    }
    if (anyOf(ctaRows, rows)) {
      if (norm == null) norm = normalized(values, from, until)
      ctaBank.scoresInto(norm, from, rows, out)
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
        if (norm == null) norm = normalized(values, from, until)
        var j = from
        while (j < until) {
          val vec = emb.embedNormalized(norm(j - from))
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

  /** `DomainEval.normalize(values(j))` at j - from, for j in [from, until). */
  private def normalized(values: Array[String], from: Int, until: Int): Array[String] = {
    val norm = new Array[String](until - from)
    var j = from
    while (j < until) { norm(j - from) = DomainEval.normalize(values(j)); j += 1 }
    norm
  }

  private def anyOf(family: Array[Int], rows: Array[Boolean]): Boolean = {
    var k = 0
    while (k < family.length && !rows(family(k))) k += 1
    k < family.length
  }
}
