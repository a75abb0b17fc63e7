package repro.experiments

import org.apache.spark.sql.SparkSession
import repro.baselines._
import repro.core.AutoTest.TrainedModel
import repro.core.{AutoTest, Prediction, Predictor, SdcModel}
import repro.corpus.{BenchGen, CleaningDatasets, ColumnStore, CorpusGen, TableColumn}
import repro.eval.PrCurve
import repro.outlier.OutlierDetectors
import repro.util.Det

/** Shared experiment harness behind the per-table benches (bench/) and
  * spark-submit jobs (jobs/). All scale knobs are env-overridable:
  *
  *   REPRO_CORPUS_COLS  training-corpus columns per corpus (default 3000)
  *   REPRO_BENCH_COLS   benchmark columns per bench (default 1200, as paper)
  *   REPRO_NSYN         |C_syn| (default 2500)
  *
  * Heavy artefacts (corpora, trained models, benchmark variants) are
  * memoised so the bench suites, which run sequentially in one JVM, share
  * them — mirroring the paper's train-once / evaluate-many protocol.
  */
object Experiments {

  /** A positive integer setting; a malformed value is rejected, naming the variable. */
  private[experiments] def envInt(name: String, default: Int, env: Map[String, String] = sys.env): Int =
    env.get(name).fold(default)(s => s.toIntOption.filter(_ > 0).getOrElse(
      throw new IllegalArgumentException(s"$name must be a positive integer, got '$s'")))

  val CorpusCols: Int = envInt("REPRO_CORPUS_COLS", 3000)
  val BenchCols: Int  = envInt("REPRO_BENCH_COLS", 1200)
  val NSyn: Int       = envInt("REPRO_NSYN", 2500)

  def trainConfig: AutoTest.AutoTestConfig = AutoTest.AutoTestConfig(
    nCentroids = 200, nPatterns = 40, nSyn = NSyn,
    bSize = 500, bFpr = 0.1, delta = 1e-3, seed = 42)

  val CorpusNames: Seq[String] = Seq("relational-tables", "spreadsheet-tables", "tablib")

  // ------------------------------------------------------------------- data

  private val corpusCache = scala.collection.concurrent.TrieMap.empty[String, Seq[TableColumn]]
  def corpus(name: String): Seq[TableColumn] = corpusCache.getOrElseUpdate(name, name match {
    case "relational-tables"  => CorpusGen.generate(CorpusGen.relationalProfile(CorpusCols))
    case "spreadsheet-tables" => CorpusGen.generate(CorpusGen.spreadsheetProfile(CorpusCols))
    case "tablib"             => CorpusGen.generate(CorpusGen.tablibProfile(CorpusCols))
    case other                => throw new IllegalArgumentException(s"unknown corpus $other")
  })

  lazy val stBench: Seq[TableColumn] = BenchGen.generate(BenchGen.stProfile(BenchCols))
  lazy val rtBench: Seq[TableColumn] = BenchGen.generate(BenchGen.rtProfile(BenchCols))

  /** The Table 4 settings: real errors plus 5/10/20% synthetic injection. */
  val ErrorSettings: Seq[(String, Double)] =
    Seq("real" -> 0.0, "+5%" -> 0.05, "+10%" -> 0.10, "+20%" -> 0.20)

  private val benchCache = scala.collection.concurrent.TrieMap.empty[(String, String), Seq[TableColumn]]
  def benchSetting(benchName: String, setting: String): Seq[TableColumn] =
    benchCache.getOrElseUpdate((benchName, setting), {
      val base = if (benchName == "st") stBench else rtBench
      val rate = ErrorSettings.toMap.apply(setting)
      if (rate == 0.0) base
      else BenchGen.withSyntheticErrors(base, rate, Det.hashString(s"$benchName-$setting"))
    })

  // ----------------------------------------------------------------- models

  private val modelCache = scala.collection.concurrent.TrieMap.empty[String, TrainedModel]
  def trained(spark: SparkSession, corpusName: String): TrainedModel =
    modelCache.getOrElseUpdate(corpusName, {
      Console.err.println(s"[experiments] training Auto-Test on $corpusName ($CorpusCols cols)...")
      val t0 = System.nanoTime()
      val m = AutoTest.train(spark, corpus(corpusName), trainConfig)
      Console.err.println(f"[experiments] trained on $corpusName in ${(System.nanoTime() - t0) / 1e9}%.1f s: " +
        s"|R_all|=${m.assessed.size} |coarse|=${m.coarse.selected.size} |fine|=${m.fine.selected.size}")
      m
    })

  private val autoDetectCache = scala.collection.concurrent.TrieMap.empty[String, AutoDetect]
  def autoDetect(corpusName: String): AutoDetect =
    autoDetectCache.getOrElseUpdate(corpusName, AutoDetect.train(corpus(corpusName)))

  // ---------------------------------------------------------------- methods

  /** Table 4's method roster: (group, name). */
  def methodRoster: Seq[(String, String)] =
    Seq(
      "Ours" -> "All-Constraints", "Ours" -> "Fine-Select", "Ours" -> "Coarse-Select",
    ) ++ Seq("Sherlock", "Doduo", "Glove", "SentenceBERT", "Regex", "DataPrep", "Validators")
      .map("Column-type" -> _) ++
      Seq("Data-cleaning" -> "AutoDetect", "Data-cleaning" -> "Katara") ++
      Seq("SVDD", "DBOD", "LOF", "RKDE", "PPCA", "IForest").map("Outlier" -> _) ++
      Seq("few-shot-with-COT", "few-shot-no-COT", "zero-shot-with-COT", "zero-shot-no-COT",
        "GPT-finetuned").map("GPT" -> _) ++
      Seq("Commercial" -> "Vendor-A", "Commercial" -> "Vendor-B")

  /** Predictions of one method on a set of columns. Auto-Test variants and
    * AutoDetect use the model trained on `trainCorpus`.
    */
  def methodPredictions(spark: SparkSession, method: String, cols: Seq[TableColumn],
                        trainCorpus: String = "relational-tables"): IndexedSeq[Prediction] =
    method match {
      case "All-Constraints" => Predictor.predict(spark, trained(spark, trainCorpus).allConstraintsModel, cols)
      case "Fine-Select"     => Predictor.predict(spark, trained(spark, trainCorpus).fineModel, cols)
      case "Coarse-Select"   => Predictor.predict(spark, trained(spark, trainCorpus).coarseModel, cols)
      case "AutoDetect"      => DetectorRunner.run(spark, autoDetect(trainCorpus), cols)
      case other             => DetectorRunner.run(spark, detectorByName(other), cols)
    }

  def detectorByName(name: String): ErrorDetector = name match {
    case "Sherlock"           => ZScoreBaselines.sherlock
    case "Doduo"              => ZScoreBaselines.doduo
    case "Glove"              => ZScoreBaselines.glove
    case "SentenceBERT"       => ZScoreBaselines.sbert
    case "Regex"              => ZScoreBaselines.regex
    case "DataPrep"           => ZScoreBaselines.dataprep
    case "Validators"         => ZScoreBaselines.validators
    case "Katara"             => Katara.default
    case "SVDD"               => OutlierDetectors.svdd
    case "DBOD"               => OutlierDetectors.dbod
    case "LOF"                => OutlierDetectors.lof
    case "RKDE"               => OutlierDetectors.rkde
    case "PPCA"               => OutlierDetectors.ppca
    case "IForest"            => OutlierDetectors.iforest
    case "few-shot-with-COT"  => GptSim.fewShotWithCot
    case "few-shot-no-COT"    => GptSim.fewShotNoCot
    case "zero-shot-with-COT" => GptSim.zeroShotWithCot
    case "zero-shot-no-COT"   => GptSim.zeroShotNoCot
    case "GPT-finetuned"      => GptSim.fineTuned
    case "Vendor-A"           => Vendors.vendorA
    case "Vendor-B"           => Vendors.vendorB
    case other                => throw new IllegalArgumentException(s"unknown method $other")
  }

  /** (F1@P=0.8, PR-AUC) of a method on one bench/setting. */
  def score(spark: SparkSession, method: String, benchName: String, setting: String,
            trainCorpus: String = "relational-tables"): (Double, Double) = {
    val cols = benchSetting(benchName, setting)
    val r = PrCurve.evaluate(methodPredictions(spark, method, cols, trainCorpus), cols)
    (r.f1AtP80, r.prAuc)
  }

  /** Quality of an arbitrary SdcModel on one bench/setting. */
  def scoreModel(spark: SparkSession, model: SdcModel, benchName: String,
                 setting: String): (Double, Double) = {
    val cols = benchSetting(benchName, setting)
    val r = PrCurve.evaluate(Predictor.predict(spark, model, cols), cols)
    (r.f1AtP80, r.prAuc)
  }

  /** Single-threaded prediction latency (seconds per column): the median
    * of 5 timed passes over a 300-column sample, after one untimed pass
    * over the whole sample so JIT compilation order does not rank models.
    */
  def latencyPerColumn(model: SdcModel, cols: Seq[TableColumn]): Double = {
    val sample = cols.take(300)
    sample.foreach(c => model.predictColumn(c.values))
    val passes = Seq.fill(5) {
      val t0 = System.nanoTime()
      sample.foreach(c => model.predictColumn(c.values))
      (System.nanoTime() - t0) / 1e9 / sample.size
    }
    passes.sorted.apply(2)
  }

  // ------------------------------------------------------------- formatting

  def fmtPair(p: (Double, Double)): String = f"${p._1}%.2f, ${p._2}%.2f"

  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (line(header) +: line(widths.map("-" * _)) +: rows.map(line)).mkString("\n")
  }
}
