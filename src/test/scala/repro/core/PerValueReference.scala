package repro.core

import repro.core.CandidateGen.EvalPlan
import repro.corpus.{CorpusGen, TableColumn}
import repro.dists.{CtaClassifier, DomainEval, EvalRegistry, FunctionEval, PatternEval}
import repro.domains.Vocab

/** Definition 2 evaluated the slow, obvious way: one `DomainEval.distance`
  * call per evaluator and value, and brute-force counts instead of
  * [[ColumnProfile]]. The contingency pass, C_syn detections and prediction
  * must reproduce it exactly.
  */
object PerValueReference {

  def dists(eval: DomainEval, values: Seq[String]): Seq[Double] = values.map(eval.distance)

  /** [[ColumnProfile]] of one row of distances at the sorted, distinct `edges`. */
  def profile(dists: Array[Double], edges: Array[Double]): ColumnProfile =
    ColumnProfile.fromCodes(dists.map(ColumnProfile.bucket(_, edges).toByte), dists.indices.toArray, edges.length)

  def covered(ds: Seq[Double], dIn: Double, m: Double): Boolean =
    ds.nonEmpty && ds.count(_ <= dIn).toDouble / ds.size >= m

  /** Flat [ct, cnt, nct, ncnt] array per candidate, as `Assessment.contingency`. */
  def contingency(corpus: Seq[TableColumn], plans: IndexedSeq[EvalPlan]): Array[Long] = {
    val counts = new Array[Long](CandidateGen.totalCandidates(plans) * 4)
    for (col <- corpus; plan <- plans) {
      val ds = dists(plan.eval, col.values)
      plan.candidates.foreach { c =>
        val slot = c.idx * 4 + (if (covered(ds, c.dIn, c.m)) 0 else 2) +
          (if (ds.exists(_ > c.dOut)) 0 else 1)
        counts(slot) += 1
      }
    }
    counts
  }

  /** (synId, candIdx) pairs in C_syn, plan and candidate order, as `SynCorpus.detections`. */
  def detections(syn: Seq[SynCorpus.SynColumn], plans: IndexedSeq[EvalPlan]): IndexedSeq[(Int, Int)] =
    for {
      sc   <- syn.toIndexedSeq
      plan <- plans
      ds = dists(plan.eval, sc.baseValues :+ sc.errValue)
      c    <- plan.candidates if ds.last > c.dOut && covered(ds, c.dIn, c.m)
    } yield (sc.synId, c.idx)

  /** flagged value -> max confidence, as `SdcModel.predictColumn`. */
  def predictColumn(sdcs: Seq[Sdc], registry: EvalRegistry, values: Seq[String]): Map[String, Double] = {
    val flagged = for {
      s <- sdcs
      ds = dists(registry.byId(s.evalId), values) if covered(ds, s.dIn, s.m)
      (v, d) <- values.zip(ds) if d > s.dOut
    } yield v -> s.confidence
    flagged.groupMapReduce(_._1)(_._2)(math.max)
  }

  /** SDCs whose pre-condition holds on `values`, in kernel order (by
    * evaluator id, d_in and m, ties in model order), as
    * `SdcModel.explainColumn` lists them.
    */
  def coveringSdcs(sdcs: Seq[Sdc], registry: EvalRegistry, values: Seq[String]): Seq[Sdc] =
    sdcs.sortBy(s => (s.evalId, s.dIn, s.m))
      .filter(s => covered(dists(registry.byId(s.evalId), values), s.dIn, s.m))

  /** A small corpus and a registry with all four families, embedding
    * centroids of both models sampled from the corpus so their candidates
    * cover and trigger on real columns.
    */
  lazy val corpus: Seq[TableColumn] = CorpusGen.generate(CorpusGen.relationalProfile(nCols = 80))

  lazy val mixedRegistry: EvalRegistry = {
    val full = EvalRegistry.default(AutoTest.sampleCentroids(corpus, 6, 3L), Nil)
    new EvalRegistry(
      CtaClassifier.sherlockBank(Vocab.nlDomains).take(3) ++ CtaClassifier.doduoBank(Vocab.nlDomains).take(3) ++
      full.byFamily(DomainEval.Embedding) ++
      IndexedSeq(new PatternEval("\\d+ [a-zA-Z]+"), new PatternEval("[a-zA-Z]+\\d+")) ++
      FunctionEval.allEvals)
  }
}
