package repro.core

import repro.SparkSpec
import repro.corpus.{CorpusGen, TableColumn}
import repro.dists.{EvalRegistry, PatternEval}

class SynCorpusSpec extends SparkSpec {

  private lazy val corpus = CorpusGen.generate(CorpusGen.relationalProfile(nCols = 150))

  test("generate produces the requested number of synthetic columns") {
    val syn = SynCorpus.generate(corpus, nSyn = 100, seed = 1L)
    assert(syn.size == 100)
    assert(syn.map(_.synId) == (0 until 100))
  }

  test("generation is deterministic in the seed") {
    val a = SynCorpus.generate(corpus, 50, 2L)
    val b = SynCorpus.generate(corpus, 50, 2L)
    assert(a == b)
    val c = SynCorpus.generate(corpus, 50, 3L)
    assert(a != c)
  }

  test("injected error comes from a different domain and is not already present") {
    val byId = corpus.map(c => c.colId -> c).toMap
    SynCorpus.generate(corpus, 200, 4L).foreach { sc =>
      val base = byId(sc.baseColId)
      assert(!sc.baseValues.contains(sc.errValue))
      // find the error's source domain: must differ from the base column's
      val sources = corpus.filter(_.values.contains(sc.errValue)).map(_.domainTag).toSet
      assert(!sources.contains(base.domainTag) || sources.size > 1,
        s"error '${sc.errValue}' may be valid in ${base.domainTag}")
    }
  }

  test("detections find pattern-SDC catches of cross-domain injections") {
    val patEval = new PatternEval("\\d+ [a-zA-Z]+")
    val registry = new EvalRegistry(IndexedSeq(patEval))
    val plans = CandidateGen.enumerate(registry)
    val unitCols = (0 until 10).map { i =>
      TableColumn(s"u$i", "unit", (1 to 30).map(j => s"${i * 50 + j} oz"), Nil, 30)
    }
    val syn = IndexedSeq(
      SynCorpus.SynColumn(0, "u0", unitCols(0).values, "germany"),     // detectable
      SynCorpus.SynColumn(1, "u1", unitCols(1).values, "17 ml"),       // matches pattern: NOT detectable
    )
    val dets = SynCorpus.detections(spark, syn, plans)
    val detectedSyn = dets.map(_._1).toSet
    assert(detectedSyn.contains(0))
    assert(!detectedSyn.contains(1))
  }

  test("detection requires the pre-condition to hold on C(v^e)") {
    val patEval = new PatternEval("\\d+ [a-zA-Z]+")
    val registry = new EvalRegistry(IndexedSeq(patEval))
    val plans = CandidateGen.enumerate(registry)
    // Mixed column: only 50% match the pattern → no m >= 0.85 holds.
    val mixed = (1 to 10).map(j => s"$j oz") ++ (1 to 10).map(j => s"word$j")
    val syn = IndexedSeq(SynCorpus.SynColumn(0, "m", mixed, "zzz-err"))
    val dets = SynCorpus.detections(spark, syn, plans)
    assert(dets.isEmpty)
  }

  test("detections equal the per-evaluator distance reference, in order") {
    val ref = PerValueReference
    val plans = CandidateGen.enumerate(ref.mixedRegistry)
    val syn = SynCorpus.generate(ref.corpus, 120, 6L)
    val dets = SynCorpus.detections(spark, syn, plans)
    assert(dets == ref.detections(syn, plans))
    val byEval = plans.flatMap(p => p.candidates.map(_.idx -> p.eval.family)).toMap
    assert(dets.exists(d => byEval(d._2) == repro.dists.DomainEval.Embedding), "no embedding detection")
  }

  test("detections of synthetic columns sharing a base equal the reference, in order") {
    val ref = PerValueReference
    val plans = CandidateGen.enumerate(ref.mixedRegistry)
    // Three detected synthetic columns on different bases supply bases and v^e.
    val gen = SynCorpus.generate(ref.corpus, 120, 6L)
    val hit = ref.detections(gen, plans).map(d => gen(d._1)).distinctBy(_.baseColId)
    val Seq(a, b, c) = hit.take(3)
    def sc(id: Int, base: SynCorpus.SynColumn, err: String) = base.copy(synId = id, errValue = err)
    val syn = IndexedSeq(
      sc(9, a, a.errValue), sc(3, b, b.errValue), sc(7, a, c.errValue),
      SynCorpus.SynColumn(1, "empty", Nil, a.errValue),
      // same baseColId as `a`, other values: must be decided on its own base
      SynCorpus.SynColumn(4, a.baseColId, c.baseValues, a.errValue),
      sc(0, a, "12 oz"), sc(8, b, a.errValue),
      SynCorpus.SynColumn(2, "empty", Nil, b.errValue),
      sc(5, a, a.errValue), sc(6, c, c.errValue))
    val dets = SynCorpus.detections(spark, syn, plans)
    assert(dets == ref.detections(syn, plans))
    def detected(synId: Int) = dets.collect { case (`synId`, cand) => cand }.toSet
    assert(detected(9).nonEmpty && detected(9) == detected(5), "same base and v^e, same detections")
    assert(detected(4) != detected(9), "same baseColId, other values: decided on its own base")
    // C(v^e) = {v^e}: covering needs f(v^e) <= d_in, detecting f(v^e) > d_out > d_in.
    assert(detected(1).isEmpty && detected(2).isEmpty)
  }

  test("detection pairs reference valid candidate indices") {
    val registry = new EvalRegistry(
      IndexedSeq(new PatternEval("\\d+ [a-zA-Z]+"), new PatternEval("[a-zA-Z]+\\d+")))
    val plans = CandidateGen.enumerate(registry)
    val nCand = CandidateGen.totalCandidates(plans)
    val syn = SynCorpus.generate(corpus, 50, 5L)
    val dets = SynCorpus.detections(spark, syn, plans)
    dets.foreach { case (synId, candIdx) =>
      assert(synId >= 0 && synId < 50)
      assert(candIdx >= 0 && candIdx < nCand)
    }
  }
}
