package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{Assessment, AutoTest, CandidateGen, Selection, SynCorpus}
import repro.core.Assessment.AssessedCandidate
import repro.core.AutoTest.{AutoTestConfig, TrainedModel}
import repro.core.CandidateGen.EvalPlan
import repro.corpus.{ColumnStore, TableColumn}
import repro.dists.{EvalRegistry, Patterns}
import repro.util.Det

/** `AutoTest.train` composed stage by stage from the public functions it
  * calls, with a span around each call. The traced run checks that this
  * composition reproduces `AutoTest.train`'s R_all, detections and
  * selections exactly, so a change inside `train` that this file does not
  * follow fails loudly instead of tracing a different pipeline.
  */
object StagedTrain {

  def run(spark: SparkSession, corpus: Seq[TableColumn], cfg: AutoTestConfig, t: Tracer): TrainedModel =
    t.span("train") {
      val corpusDf = t.span("corpus.to_df")(ColumnStore.toDf(spark, corpus))
      val patterns = t.span("dists.patterns.mine") {
        Patterns.minePatterns(ColumnStore.explode(corpusDf), topK = cfg.nPatterns)
      }
      val registry = t.span("dists.registry.build") {
        val centroids = AutoTest.sampleCentroids(corpus, cfg.nCentroids, cfg.seed)
        cfg.dropFamilies.foldLeft(EvalRegistry.default(centroids, patterns))(_ dropFamily _)
      }
      val plans = t.span("candidategen.enumerate")(CandidateGen.enumerate(registry))
      val counts = t.span("assessment.contingency") {
        import spark.implicits._
        Assessment.contingency(spark, corpus.toDS(), plans)
      }
      val assessed = t.span("assessment.assess") {
        Assessment.assess(plans, counts, corpus.size.toLong, cfg.assessConfig)
      }
      val assessedPlans = t.span("autotest.reindex")(reindex(assessed, plans))
      val syn = t.span("syncorpus.generate") {
        SynCorpus.generate(corpus, cfg.nSyn, Det.combine(cfg.seed, 0x5151))
      }
      val detections = t.span("syncorpus.detections")(SynCorpus.detections(spark, syn, assessedPlans))
      def select(delta: Option[Double]) = Selection.select(assessed, detections, cfg.nSyn,
        Selection.SelectionConfig(cfg.bSize, cfg.bFpr, delta, cfg.maxLpCandidates, seed = cfg.seed))
      val coarse = t.span("selection.css")(select(None))
      val fine = t.span("selection.fss")(select(Some(cfg.delta)))
      TrainedModel(registry, assessed, assessedPlans, detections, cfg.nSyn, coarse, fine,
        timings = Map.empty, config = cfg, allPlans = plans, contingencyCounts = counts,
        totalCols = corpus.size.toLong)
    }

  /** Keep each plan's surviving candidates, renumbered to R_all positions
    * (the step `AutoTest.train` does inline between assessment and C_syn).
    */
  private def reindex(assessed: IndexedSeq[AssessedCandidate], plans: IndexedSeq[EvalPlan]): IndexedSeq[EvalPlan] = {
    val pos = assessed.zipWithIndex.map { case (a, i) => ((a.sdc.evalId, a.sdc.dIn, a.sdc.dOut, a.sdc.m), i) }.toMap
    plans.flatMap { p =>
      val kept = p.candidates.flatMap(c => pos.get((c.evalId, c.dIn, c.dOut, c.m)).map(i => c.copy(idx = i)))
      if (kept.isEmpty) None else Some(p.copy(candidates = kept))
    }
  }

  /** Differences between the staged composition and `AutoTest.train`. */
  def compare(staged: TrainedModel, train: TrainedModel): Seq[String] = Seq(
    (staged.assessed == train.assessed) -> "R_all",
    (staged.detections == train.detections) -> "detections",
    (staged.coarse == train.coarse) -> "CSS selection",
    (staged.fine == train.fine) -> "FSS selection",
  ).collect { case (false, what) => s"composition: staged $what differs from AutoTest.train" }
}
