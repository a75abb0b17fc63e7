package repro.dists

import repro.domains.Vocab

/** The full bank of domain-evaluation functions used for candidate
  * generation (paper Sec 5.1):
  *
  *   - CTA: Sherlock-sim + Doduo-sim classifier banks (one per NL domain),
  *   - Embedding: GloVe-sim + SBERT-sim, each with corpus-sampled centroid
  *     values ("seattle", "january", ...),
  *   - Pattern: corpus-mined character-class patterns,
  *   - Function: the 8 validation functions.
  *
  * Counts are scaled down from the paper's (199 + 2000 + 45 + 8) to keep the
  * pipeline in-container; every count is a parameter (DESIGN §2).
  */
final class EvalRegistry(val all: IndexedSeq[DomainEval]) {

  val byId: Map[String, DomainEval] = all.map(e => e.id -> e).toMap

  /** One family's evaluators, in registry order. */
  def byFamily(family: String): IndexedSeq[DomainEval] = {
    requireKnown(family)
    all.filter(_.family == family)
  }

  /** Registry without one family — used by the Table 7 ablation. */
  def dropFamily(family: String): EvalRegistry = {
    requireKnown(family)
    new EvalRegistry(all.filter(_.family != family))
  }

  private def requireKnown(family: String): Unit =
    require(DomainEval.families.contains(family), s"unknown family $family")
}

object EvalRegistry {

  lazy val gloveEmbedding: SynthEmbedding = SynthEmbedding.glove()
  lazy val sbertEmbedding: SynthEmbedding = SynthEmbedding.sbert()
  lazy val sherlockBank: IndexedSeq[CtaClassifier] = CtaClassifier.sherlockBank(Vocab.nlDomains)
  lazy val doduoBank: IndexedSeq[CtaClassifier] = CtaClassifier.doduoBank(Vocab.nlDomains)

  /** Assemble the default registry: CTA, embedding, pattern, then function
    * evaluators, which fixes the candidate indices.
    *
    * @param centroidValues corpus-sampled values used as embedding centroids
    *                       (paper samples 1000; we default to a few hundred)
    * @param minedPatterns  corpus-mined character-class patterns
    */
  def default(centroidValues: Seq[String], minedPatterns: Seq[String]): EvalRegistry = {
    val cta = sherlockBank ++ doduoBank
    val emb: IndexedSeq[DomainEval] = centroidValues.distinct.flatMap { c =>
      Seq(new EmbeddingCentroidEval(gloveEmbedding, c),
          new EmbeddingCentroidEval(sbertEmbedding, c))
    }.toIndexedSeq
    val pat: IndexedSeq[DomainEval] = minedPatterns.distinct.map(new PatternEval(_)).toIndexedSeq
    new EvalRegistry(cta ++ emb ++ pat ++ FunctionEval.allEvals)
  }
}
