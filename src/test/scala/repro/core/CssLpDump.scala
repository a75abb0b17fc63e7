package repro.core

import java.nio.file.Paths

import repro.core.Assessment.AssessedCandidate
import repro.core.AutoTest.AutoTestConfig
import repro.core.Selection.SelectionConfig
import repro.corpus.{ColumnStore, CorpusGen, TableColumn}
import repro.dists.{EvalRegistry, Patterns}
import repro.lp.LpInstance
import repro.perfbench.Inputs
import repro.util.Det

/** Writes the selection LPs of `SimplexSpec`'s regression tests to
  * `src/test/resources/lp/`, from the generators:
  *
  *  - `css-600-reseeded`: the 600-column relational corpus re-seeded with
  *    `Det.combine(profile.seed, 1)`, 50 centroids, |C_syn| = 1,500, at
  *    B_size 500 (`perfbench/README.md`, "Known defect");
  *  - `css-reference-seed42`, `css-reference-seed43`: the reference scale of
  *    `bench/results` (3,000 columns, `Inputs.ReferenceConfig`) at training
  *    seeds 42 and 43;
  *  - `css-perfbench`, `fss-perfbench`: the CSS and FSS (δ = 1e-3) LPs of
  *    perfbench's pinned corpus (`Inputs.corpus()`, `Inputs.Config`) at
  *    B_size 500, whose objectives `Recorded` holds.
  *
  * Run from the repository root with `sbt "Test/runMain repro.core.CssLpDump [name …]"`
  * (no name: all five). The reference trainings take about a minute each
  * and need a 4 GB heap.
  */
object CssLpDump {

  private def reseeded600: (Seq[TableColumn], AutoTestConfig) = {
    val profile = CorpusGen.relationalProfile(600)
    (CorpusGen.generate(profile.copy(seed = Det.combine(profile.seed, 1))),
      AutoTestConfig(nCentroids = 50, nSyn = 1500))
  }

  /** Each LP's corpus and training configuration, and its δ (None: CSS). */
  private val instances: Map[String, (() => (Seq[TableColumn], AutoTestConfig), Option[Double])] = Map(
    "css-600-reseeded" -> ((() => reseeded600), None),
    "css-reference-seed42" -> ((() => (Inputs.corpus(Inputs.ReferenceCols), Inputs.ReferenceConfig)), None),
    "css-reference-seed43" -> ((() => (Inputs.corpus(Inputs.ReferenceCols), Inputs.ReferenceConfig.copy(seed = 43))), None),
    "css-perfbench" -> ((() => (Inputs.corpus(), Inputs.Config)), None),
    "fss-perfbench" -> ((() => (Inputs.corpus(), Inputs.Config)), Some(Inputs.Config.delta)),
  )

  /** R_all and the C_syn detections, as `AutoTest.train` computes them
    * before its selection (which can throw on these instances).
    */
  private def recall(corpus: Seq[TableColumn], cfg: AutoTestConfig): (IndexedSeq[AssessedCandidate], IndexedSeq[(Int, Int)]) = {
    val centroids = AutoTest.sampleCentroids(corpus, cfg.nCentroids, cfg.seed)
    val patterns = Patterns.mine(ColumnStore.rows(corpus), topK = cfg.nPatterns)
    val registry = EvalRegistry.default(centroids, patterns)
    val plans = CandidateGen.enumerate(registry)
    val codes = ValueCodes(corpus.iterator.flatMap(_.values), plans)
    val counts = Assessment.count(corpus, codes, plans)
    val assessed = Assessment.assess(plans, counts, corpus.size.toLong, cfg.assessConfig)
    val assessedPlans = CandidateGen.plansFor(assessed.map(_.sdc), registry)((eval, _) => CandidateGen.thresholds(eval))
    val syn = SynCorpus.generate(corpus, cfg.nSyn, Det.combine(cfg.seed, 0x5151))
    (assessed, SynCorpus.detect(syn, codes, assessedPlans))
  }

  def main(args: Array[String]): Unit = {
    val names = if (args.isEmpty) instances.keys.toSeq.sorted else args.toSeq
    names.foreach { name =>
      val (inputs, delta) = instances(name)
      val (corpus, cfg) = inputs()
      val (assessed, detections) = recall(corpus, cfg)
      val lp = SetSelection.lp(assessed, detections,
        SelectionConfig(cfg.bSize, cfg.bFpr, delta, cfg.maxLpCandidates, seed = cfg.seed)).get
      val path = Paths.get("src", "test", "resources", "lp", s"$name.lp.gz")
      LpInstance.write(lp, path)
      println(s"$name: n=${lp.n} (${lp.c.count(_ == 0.0)} candidates), m=${lp.m} rows, " +
        s"${lp.rows.map(_.length).sum} entries -> $path")
    }
  }
}
