package repro.dists

import org.scalatest.funsuite.AnyFunSuite

class EvalRegistrySpec extends AnyFunSuite {

  private val registry = EvalRegistry.default(
    centroidValues = Seq("january", "seattle", "red"),
    minedPatterns = Seq("\\d+ [a-zA-Z]+", "[a-zA-Z]+\\d+"))

  // Families interleaved, so filtering must keep the given order.
  private val pat = new PatternEval("\\d+")
  private val emb = new EmbeddingCentroidEval(EvalRegistry.gloveEmbedding, "march")
  private val funs = FunctionEval.allEvals
  private val mixed = new EvalRegistry(IndexedSeq(pat, funs.head, emb, new PatternEval("[a-z]+"), funs.last))

  test("default lists CTA, embedding, pattern, then function evaluators") {
    val families = registry.all.map(_.family)
    assert(families.distinct == DomainEval.families)
    assert(families == families.sortBy(DomainEval.families.indexOf(_)))
    assert(registry.byFamily(DomainEval.Embedding).size == 6)
    assert(registry.byFamily(DomainEval.Pattern).size == 2)
    assert(registry.byFamily(DomainEval.Function).map(_.id) == funs.map(_.id))
  }

  test("each default evaluator's family matches its id prefix") {
    val prefix = Map(DomainEval.Cta -> "cta:", DomainEval.Embedding -> "emb:",
      DomainEval.Pattern -> "pat:", DomainEval.Function -> "fun:")
    registry.all.foreach(e => assert(e.id.startsWith(prefix(e.family)), e.id))
    registry.all.foreach(e => assert(registry.byId(e.id) eq e, e.id))
  }

  test("byFamily and dropFamily agree with each evaluator's family and keep its order") {
    for (r <- Seq(registry, mixed); f <- DomainEval.families) {
      assert(r.byFamily(f) == r.all.filter(_.family == f), f)
      assert(r.dropFamily(f).all == r.all.filter(_.family != f), f)
      assert(r.dropFamily(f).byFamily(f).isEmpty, f)
    }
    assert(mixed.byFamily(DomainEval.Pattern).map(_.id) == Seq("pat:\\d+", "pat:[a-z]+"))
    assert(mixed.dropFamily(DomainEval.Pattern).all == IndexedSeq(funs.head, emb, funs.last))
  }

  test("an unknown family throws, also on an empty registry") {
    for (r <- Seq(registry, new EvalRegistry(IndexedSeq.empty)); f <- Seq("nope", "emb", "")) {
      intercept[IllegalArgumentException](r.byFamily(f))
      intercept[IllegalArgumentException](r.dropFamily(f))
    }
  }
}
