package repro.core

import repro.{SparkJobs, SparkSpec}
import repro.corpus.{BenchGen, CorpusGen, TableColumn}
import repro.eval.PrCurve
import repro.util.Det

/** End-to-end offline training + online prediction on small-scale data.
  * This is the integration test for the whole Fig 5 pipeline; the bench
  * suites run the same flow at full reproduction scale.
  */
class AutoTestSpec extends SparkSpec {

  // Mirrors the bench configuration (incl. the scaled B_FPR, DESIGN §2 /
  // EXPERIMENTS.md) at a reduced-but-sufficient corpus size.
  private val cfg = AutoTest.AutoTestConfig(
    nCentroids = 100, nPatterns = 30, nSyn = 600, bSize = 300, bFpr = 0.1, seed = 11)

  private lazy val corpus = CorpusGen.generate(CorpusGen.relationalProfile(nCols = 1500))
  private lazy val model = AutoTest.train(corpus, cfg)
  private lazy val noPat = AutoTest.train(corpus.take(300),
    cfg.copy(nSyn = 150, dropFamilies = Set(repro.dists.DomainEval.Pattern)))

  /** Reference for `assessedPlans`: each enumerated plan's candidates that
    * survive assessment, renumbered to their R_all positions, found by
    * (evalId, d_in, d_out, m).
    */
  private def reindexed(m: AutoTest.TrainedModel): IndexedSeq[CandidateGen.EvalPlan] = {
    val pos = m.assessed.zipWithIndex.map { case (a, i) => ((a.sdc.evalId, a.sdc.dIn, a.sdc.dOut, a.sdc.m), i) }.toMap
    m.allPlans.flatMap { p =>
      val kept = p.candidates.flatMap(c => pos.get((c.evalId, c.dIn, c.dOut, c.m)).map(i => c.copy(idx = i)))
      if (kept.isEmpty) None else Some(p.copy(candidates = kept))
    }
  }

  test("sampleCentroids draws only from non-empty columns") {
    val cols = Seq(TableColumn("full", "d", Seq("x", "y"), Nil, 2)) ++
      (1 to 9).map(i => TableColumn(s"empty$i", "d", Nil, Nil, 0))
    val centroids = AutoTest.sampleCentroids(cols, 2, 42)
    assert(centroids.nonEmpty && centroids.forall(Set("x", "y")))
    assert(AutoTest.sampleCentroids(cols.tail, 2, 42).isEmpty)
  }

  test("training rejects an empty corpus, naming the column count") {
    val e = intercept[IllegalArgumentException](AutoTest.train(Nil, cfg))
    assert(e.getMessage.contains("at least 2 corpus columns") && e.getMessage.contains("got 0"))
  }

  test("training rejects a one-column corpus, naming the column count") {
    val e = intercept[IllegalArgumentException](AutoTest.train(corpus.take(1), cfg))
    assert(e.getMessage.contains("at least 2 corpus columns") && e.getMessage.contains("got 1"))
  }

  test("train runs no Spark job") {
    assert(SparkJobs.count(spark)(AutoTest.train(spark, corpus.take(200), cfg.copy(nSyn = 100))) == 0)
  }

  test("each trained model's SDC models are built once") {
    assert(model.allConstraintsModel eq model.allConstraintsModel)
    assert(model.coarseModel eq model.coarseModel)
    assert(model.fineModel eq model.fineModel)
  }

  test("shared-code contingency and detections equal the standalone passes") {
    import spark.implicits._
    assert(model.contingencyCounts.toSeq == Assessment.contingency(spark, corpus.toDS(), model.allPlans).toSeq)
    val syn = SynCorpus.generate(corpus, cfg.nSyn, Det.combine(cfg.seed, 0x5151))
    assert(model.detections == SynCorpus.detections(spark, syn, model.assessedPlans))
  }

  test("assessedPlans equal the re-index of the enumerated plans, field by field, in order") {
    Seq(model, noPat).foreach { m =>
      val (got, want) = (m.assessedPlans, reindexed(m))
      assert(got.nonEmpty)
      assert(got.map(_.eval.id) == want.map(_.eval.id))
      got.zip(want).foreach { case (g, w) =>
        assert(g.thresholds.toSeq == w.thresholds.toSeq, g.eval.id)
        assert(g.candidates == w.candidates, g.eval.id)
      }
    }
  }

  test("training produces a non-trivial R_all across multiple families") {
    assert(model.assessed.size > 50, s"only ${model.assessed.size} assessed candidates")
    val families = model.assessed.map(_.sdc.evalId.takeWhile(_ != ':')).distinct
    assert(families.size >= 3, s"families: $families")
  }

  test("assessed candidates all pass the statistical gates") {
    model.assessed.foreach { a =>
      assert(a.effectSize >= Assessment.HThreshold)
      assert(a.pValue <= Assessment.PThreshold)
      assert(a.sdc.confidence > 0 && a.sdc.confidence < 1)
    }
  }

  test("distant-supervision detections are plentiful") {
    assert(model.detections.nonEmpty)
    val detectedSyn = model.detections.map(_._1).distinct.size
    assert(detectedSyn > cfg.nSyn / 4, s"only $detectedSyn of ${cfg.nSyn} syn errors detectable")
  }

  test("Fine-Select and Coarse-Select respect the budgets") {
    Seq(model.coarse, model.fine).foreach { sel =>
      assert(sel.selected.nonEmpty)
      assert(sel.selected.size <= cfg.bSize)
      assert(sel.selected.map(_.fpr).sum <= cfg.bFpr + 1e-9)
    }
  }

  test("selection compresses R_all substantially (Table 5's point)") {
    assert(model.fine.selected.size < model.assessed.size)
  }

  test("timings are recorded for every phase (Fig 14 breakdown)") {
    assert(model.timings.keySet == Set("candidate-gen", "coarse-select", "fine-select"))
    assert(model.timings.values.forall(_ >= 0.0))
  }

  test("training, reselect and selectSubset select what the Set-based reduction selects") {
    def reference(cands: IndexedSeq[Assessment.AssessedCandidate], dets: Seq[(Int, Int)],
                  bSize: Int, delta: Option[Double]) =
      SetSelection.select(cands, dets, model.nSyn,
        Selection.SelectionConfig(bSize, cfg.bFpr, delta, cfg.maxLpCandidates, seed = cfg.seed))
    import SelectionEquivalenceSpec.same
    assert(same(model.coarse, reference(model.assessed, model.detections, cfg.bSize, None)))
    assert(same(model.fine, reference(model.assessed, model.detections, cfg.bSize, Some(cfg.delta))))
    for (b <- Seq(20, 100, 500); d <- Seq(None, Some(cfg.delta)))
      assert(same(model.reselect(bSize = b, delta = d), reference(model.assessed, model.detections, b, d)), s"B_size $b δ $d")
    val kept = model.assessed.zipWithIndex.filter(!_._1.sdc.evalId.startsWith("cta:"))
    val remap = kept.map(_._2).zipWithIndex.toMap
    val dets = model.detections.collect { case (s, c) if remap.contains(c) => (s, remap(c)) }
    assert(same(model.selectSubset(!_.sdc.evalId.startsWith("cta:")),
      reference(kept.map(_._1), dets, cfg.bSize, Some(cfg.delta))))
  }

  test("reselect with a smaller budget returns fewer or equal rules") {
    val small = model.reselect(bSize = 20, delta = Some(cfg.delta))
    assert(small.selected.size <= 20)
  }

  test("Fine-Select detects real errors on an unseen benchmark with high precision") {
    val bench = BenchGen.generate(BenchGen.stProfile(nCols = 400))
    val preds = model.fineModel.predictions(bench)
    val r = PrCurve.evaluate(preds, bench)
    assert(r.nTrueErrors > 0)
    assert(r.nCorrect > 0, s"no true errors detected (preds=${r.nPredictions})")
    val overallPrecision = r.nCorrect.toDouble / math.max(r.nPredictions, 1)
    assert(overallPrecision > 0.3, s"precision $overallPrecision (${r.nCorrect}/${r.nPredictions})")
    assert(r.prAuc > 0.1, s"PR-AUC ${r.prAuc}")
  }

  test("All-Constraints has more rules but not catastrophically worse precision") {
    val bench = BenchGen.generate(BenchGen.stProfile(nCols = 200))
    val all = model.allConstraintsModel
    assert(all.size > model.fineModel.size)
    val preds = all.predictions(bench)
    val r = PrCurve.evaluate(preds, bench)
    assert(r.nPredictions < bench.map(_.values.size).sum / 5,
      "All-Constraints should not flag a large fraction of all values")
  }

  test("family ablation drops the corresponding constraints (Table 7 mechanism)") {
    assert(!noPat.assessed.exists(_.sdc.evalId.startsWith("pat:")))
  }
}
