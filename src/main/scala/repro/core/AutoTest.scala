package repro.core

import org.apache.spark.sql.SparkSession
import repro.corpus.{ColumnStore, TableColumn}
import repro.core.Assessment.AssessedCandidate
import repro.core.CandidateGen.EvalPlan
import repro.dists.{EvalRegistry, Patterns}
import repro.util.Det

/** End-to-end offline training (paper Fig 5): candidate generation →
  * statistical quality tests → CSS/FSS selection.
  */
object AutoTest {

  final case class AutoTestConfig(
      /** embedding centroid values sampled from the corpus (paper: 1000) */
      nCentroids: Int = 150,
      /** corpus-mined patterns (paper: 45) */
      nPatterns: Int = 40,
      /** |C_syn| for distant-supervision recall estimation */
      nSyn: Int = 2000,
      bSize: Int = 500,
      bFpr: Double = 0.1,
      delta: Double = 1e-3,
      dropFamilies: Set[String] = Set.empty,
      maxLpCandidates: Int = 2500,
      seed: Long = 42,
  ) {
    /** The Sec 5.2 statistical gates, all on. Table 8 ablates them with
      * [[TrainedModel.reassess]] on the stored counts, not by retraining.
      */
    val assessConfig: Assessment.AssessConfig = Assessment.AssessConfig()

    /** CSS (`delta` = None) or FSS selection settings at budget `bSize`. */
    private[AutoTest] def selection(bSize: Int, bFpr: Double, delta: Option[Double]): Selection.SelectionConfig =
      Selection.SelectionConfig(bSize, bFpr, delta, maxLpCandidates, seed = seed)
  }

  /** Trained artefacts: R_all plus both selected variants.
    *
    * The raw contingency counts and full candidate plans are retained so the
    * sensitivity/ablation experiments (Tables 5, 7, 8) can re-assess and
    * re-select without re-running the distance passes.
    */
  final case class TrainedModel(
      registry: EvalRegistry,
      assessed: IndexedSeq[AssessedCandidate],
      assessedPlans: IndexedSeq[EvalPlan],
      detections: IndexedSeq[(Int, Int)],
      nSyn: Int,
      coarse: Selection.SelectionResult,
      fine: Selection.SelectionResult,
      /** phase -> seconds (Fig 14-style breakdown) */
      timings: Map[String, Double],
      config: AutoTestConfig,
      /** all enumerated plans (pre-pruning) + their contingency counts */
      allPlans: IndexedSeq[EvalPlan],
      contingencyCounts: Array[Long],
      totalCols: Long,
  ) {
    /** Each model is laid out once, on first use. */
    lazy val allConstraintsModel: SdcModel = new SdcModel(assessed.map(_.sdc), registry)
    lazy val coarseModel: SdcModel = new SdcModel(coarse.selected.map(_.sdc), registry)
    lazy val fineModel: SdcModel = new SdcModel(fine.selected.map(_.sdc), registry)

    /** `detections`, packed and sorted once for every `reselect` and `selectSubset`. */
    private lazy val packedDetections: Array[Long] = Selection.pack(detections)

    /** Re-run selection with different budgets without re-assessing. */
    def reselect(bSize: Int = config.bSize, bFpr: Double = config.bFpr,
                 delta: Option[Double]): Selection.SelectionResult =
      Selection.select(assessed, packedDetections, config.selection(bSize, bFpr, delta))

    /** Re-run the statistical gates with different flags (Table 8's Wilson /
      * Cohen's-h ablations) from the stored contingency counts.
      */
    def reassess(assessCfg: Assessment.AssessConfig): IndexedSeq[AssessedCandidate] =
      Assessment.assess(allPlans, contingencyCounts, totalCols, assessCfg)

    /** Fine-Select over a filtered R_all (Table 7's drop-one-family
      * ablation): detections are remapped to the surviving candidates.
      */
    def selectSubset(keep: AssessedCandidate => Boolean): Selection.SelectionResult = {
      val kept = IndexedSeq.newBuilder[AssessedCandidate]
      val remap = new Array[Int](assessed.size) // old idx -> new idx, −1 = dropped
      var n = 0
      assessed.indices.foreach { i =>
        if (keep(assessed(i))) { kept += assessed(i); remap(i) = n; n += 1 } else remap(i) = -1
      }
      // remap is increasing on the kept candidates, so the pairs stay sorted.
      val pairs = packedDetections.collect { case p if remap(p.toInt) >= 0 => p & ~0xffffffffL | remap(p.toInt) }
      Selection.select(kept.result(), pairs, config.selection(config.bSize, config.bFpr, Some(config.delta)))
    }
  }

  /** Sample centroid values: one random value from each of `n` random
    * non-empty columns (paper Sec 5.1 "randomly sample 1000 values as
    * centroids").
    */
  def sampleCentroids(corpus: Seq[TableColumn], n: Int, seed: Long): Seq[String] = {
    val cols = corpus.toIndexedSeq.filter(_.values.nonEmpty)
    (0 until (if (cols.isEmpty) 0 else n * 2)).iterator
      .map { i =>
        val s = Det.combine(seed, 0xce7L, i.toLong)
        val col = cols(Det.nextInt(Det.combine(s, 1), cols.size))
        col.values(Det.nextInt(Det.combine(s, 2), col.values.size))
      }
      .distinct
      .take(n)
      .toSeq
  }

  def train(spark: SparkSession, corpus: Seq[TableColumn], cfg: AutoTestConfig = AutoTestConfig()): TrainedModel = {
    require(corpus.size >= 2, s"training needs at least 2 corpus columns for C_syn, got ${corpus.size}")
    def timed[T](f: => T): (T, Double) = {
      val t0 = System.nanoTime()
      val r = f
      (r, (System.nanoTime() - t0) / 1e9)
    }

    // ---- candidate generation + statistical assessment -------------------
    // One code per (evaluator, distinct corpus value), shared by the
    // contingency pass and the C_syn detections: every C_syn value is a
    // corpus value. Training runs no Spark job: `spark` is kept for the
    // callers' signature.
    val ((assessed0, plans, registry, codes, counts), tCand) = timed {
      val centroids = sampleCentroids(corpus, cfg.nCentroids, cfg.seed)
      val patterns = Patterns.mine(ColumnStore.rows(corpus), topK = cfg.nPatterns)
      val registry = cfg.dropFamilies.foldLeft(EvalRegistry.default(centroids, patterns))(_ dropFamily _)
      val plans = CandidateGen.enumerate(registry)
      val codes = ValueCodes(corpus.iterator.flatMap(_.values), plans)
      val counts = Assessment.count(corpus, codes, plans)
      val assessed = Assessment.assess(plans, counts, corpus.size.toLong, cfg.assessConfig)
      (assessed, plans, registry, codes, counts)
    }

    // ---- R_all on the grid for the recall pass: idx = position in R_all --
    val assessedPlans: IndexedSeq[EvalPlan] =
      CandidateGen.plansFor(assessed0.map(_.sdc), registry)((eval, _) => CandidateGen.thresholds(eval))

    // ---- distant-supervision detections ----------------------------------
    val (detections, tSyn) = timed {
      val syn = SynCorpus.generate(corpus, cfg.nSyn, Det.combine(cfg.seed, 0x5151))
      SynCorpus.detect(syn, codes, assessedPlans)
    }

    // ---- CSS / FSS selection ---------------------------------------------
    val packed = Selection.pack(detections)
    val (coarse, tCoarse) = timed {
      Selection.select(assessed0, packed, cfg.selection(cfg.bSize, cfg.bFpr, None))
    }
    val (fine, tFine) = timed {
      Selection.select(assessed0, packed, cfg.selection(cfg.bSize, cfg.bFpr, Some(cfg.delta)))
    }

    TrainedModel(registry, assessed0, assessedPlans, detections, cfg.nSyn, coarse, fine,
      timings = Map(
        "candidate-gen" -> (tCand + tSyn),
        "coarse-select" -> tCoarse,
        "fine-select"   -> tFine,
      ),
      config = cfg,
      allPlans = plans,
      contingencyCounts = counts,
      totalCols = corpus.size.toLong)
  }
}
