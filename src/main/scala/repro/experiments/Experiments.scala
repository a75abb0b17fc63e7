package repro.experiments

import java.util.Locale

import repro.baselines._
import repro.core.AutoTest.TrainedModel
import repro.core.{AutoTest, Prediction, SdcModel}
import repro.corpus.{BenchGen, CorpusGen, TableColumn}
import repro.dists.EvalRegistry
import repro.eval.PrCurve
import repro.outlier.OutlierDetectors
import repro.util.Det

/** Shared experiment harness behind the per-table benches (bench/) and
  * spark-submit jobs (jobs/), at one scale: [[CorpusCols]] columns per
  * training corpus, [[BenchCols]] per benchmark (as in the paper) and
  * [[NSyn]] synthetic columns. The `bench/` gates are calibrated at it.
  *
  * Heavy artefacts (corpora, trained models, benchmark variants, baseline
  * detectors) are memoised so the bench suites, which run sequentially in
  * one JVM, share them — mirroring the paper's train-once / evaluate-many
  * protocol.
  */
object Experiments {

  val CorpusCols = 3000
  val BenchCols  = 1200
  val NSyn       = 2500

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
  def benchSetting(benchName: String, setting: String): Seq[TableColumn] = {
    val rate = ErrorSettings.toMap.getOrElse(setting,
      throw new IllegalArgumentException(s"unknown error setting '$setting'"))
    benchCache.getOrElseUpdate((benchName, setting), {
      val base = benchName match {
        case "st"  => stBench
        case "rt"  => rtBench
        case other => throw new IllegalArgumentException(s"unknown bench '$other'")
      }
      if (rate == 0.0) base
      else BenchGen.withSyntheticErrors(base, rate, Det.hashString(s"$benchName-$setting"))
    })
  }

  // ----------------------------------------------------------------- models

  private val modelCache = scala.collection.concurrent.TrieMap.empty[String, TrainedModel]
  def trained(corpusName: String): TrainedModel =
    modelCache.getOrElseUpdate(corpusName, {
      Console.err.println(s"[experiments] training Auto-Test on $corpusName ($CorpusCols cols)...")
      val t0 = System.nanoTime()
      val m = AutoTest.train(corpus(corpusName), trainConfig)
      Console.err.println("[experiments] trained on %s in %.1f s: |R_all|=%d |coarse|=%d |fine|=%d".formatLocal(Locale.ROOT,
        corpusName, (System.nanoTime() - t0) / 1e9, m.assessed.size, m.coarse.selected.size, m.fine.selected.size))
      m
    })

  // ---------------------------------------------------------------- methods

  /** A row of Table 4: its group, its name and its predictions on a set of
    * columns. The methods that train use the relational corpus.
    */
  sealed trait Method {
    def group: String
    def name: String
    /** Scored on the real-error setting only. */
    def realOnly: Boolean = false
    def predictions(cols: Seq[TableColumn]): IndexedSeq[Prediction]
  }

  /** An Auto-Test variant: one SDC set of a trained model. */
  final case class Variant(name: String, model: TrainedModel => SdcModel) extends Method {
    def group: String = "Ours"
    def predictions(cols: Seq[TableColumn]): IndexedSeq[Prediction] =
      model(trained("relational-tables")).predictions(cols)
  }

  val AllConstraints: Variant = Variant("All-Constraints", _.allConstraintsModel)
  val FineSelect: Variant     = Variant("Fine-Select", _.fineModel)
  val CoarseSelect: Variant   = Variant("Coarse-Select", _.coarseModel)
  val Variants: Seq[Variant]  = Seq(AllConstraints, FineSelect, CoarseSelect)

  /** A baseline detector, built on first use and kept. */
  final class Baseline(val group: String, val name: String, build: => ErrorDetector,
                       override val realOnly: Boolean = false) extends Method {
    lazy val detector: ErrorDetector = build
    def predictions(cols: Seq[TableColumn]): IndexedSeq[Prediction] = detector.predictions(cols)
  }

  /** Table 4's rows in order: the Auto-Test variants, then 20 baselines in
    * five groups. Each detector is built once per JVM, with the list;
    * AutoDetect trains on the relational corpus when first run.
    */
  lazy val methods: Seq[Method] = {
    import OutlierDetectors._, ZScoreBaselines._
    def group(g: String, realOnly: Boolean = false)(ds: ErrorDetector*): Seq[Baseline] =
      ds.map(d => new Baseline(g, d.name, d, realOnly))
    Variants ++
      group("Column-type")(
        new BankZScore("Sherlock", EvalRegistry.sherlockBank),
        new BankZScore("Doduo", EvalRegistry.doduoBank),
        new EmbeddingZScore("Glove", EvalRegistry.gloveEmbedding),
        new EmbeddingZScore("SentenceBERT", EvalRegistry.sbertEmbedding),
        new RegexZScore,
        new BankZScore("DataPrep", validatorBank("date", "time", "number", "phone")),
        new BankZScore("Validators", validatorBank("url", "email", "ip", "credit_card"))) ++
      Seq(new Baseline("Data-cleaning", AutoDetect.name, AutoDetect.train(corpus("relational-tables")))) ++
      group("Data-cleaning")(new Katara) ++
      group("Outlier")(new Svdd, new Dbod, new Lof, new Rkde, new Ppca, new IForest) ++
      group("GPT")(
        new GptSim("few-shot-with-COT", 1.0, Det.hashString("gpt-fs-cot")),
        new GptSim("few-shot-no-COT", 1.5, Det.hashString("gpt-fs")),
        new GptSim("zero-shot-with-COT", 2.0, Det.hashString("gpt-zs-cot")),
        new GptSim("zero-shot-no-COT", 3.0, Det.hashString("gpt-zs"))) ++
      // as in the paper, the fine-tuned model is evaluated on real errors only
      group("GPT", realOnly = true)(new GptSim("GPT-finetuned", 5.0, Det.hashString("gpt-ft"))) ++
      group("Commercial")(new Vendors.VendorA, new Vendors.VendorB)
  }

  /** (F1@P=0.8, PR-AUC) of a method's predictions on one bench/setting. */
  def score(benchName: String, setting: String)(
      predict: Seq[TableColumn] => IndexedSeq[Prediction]): (Double, Double) = {
    val cols = benchSetting(benchName, setting)
    val r = PrCurve.evaluate(predict(cols), cols)
    (r.f1AtP80, r.prAuc)
  }

  /** Single-threaded prediction latency (seconds per column) of each of
    * `models`: the median of 5 timed passes over a 300-column sample. Every
    * model first makes one untimed pass over the whole sample, before any
    * model is timed, so JIT compilation order does not rank models.
    */
  def latencyPerColumn(models: Seq[SdcModel], cols: Seq[TableColumn]): Seq[Double] = {
    val sample = cols.take(300)
    models.foreach(model => sample.foreach(c => model.predictColumn(c.values)))
    models.map { model =>
      val passes = Seq.fill(5) {
        val t0 = System.nanoTime()
        sample.foreach(c => model.predictColumn(c.values))
        (System.nanoTime() - t0) / 1e9 / sample.size
      }
      passes.sorted.apply(2)
    }
  }

  // ------------------------------------------------------------- formatting

  /** `x` with `digits` decimals, formatted in `Locale.ROOT`: every number
    * in a rendered table goes through here, so no table reads the JVM's
    * default locale.
    */
  def fmt(x: Double, digits: Int): String = s"%.${digits}f".formatLocal(Locale.ROOT, x)

  /** `x` to `digits` significant digits, in `Locale.ROOT`. */
  def fmtSig(x: Double, digits: Int): String = s"%.${digits}g".formatLocal(Locale.ROOT, x)

  def fmtPair(p: (Double, Double)): String = s"${fmt(p._1, 2)}, ${fmt(p._2, 2)}"

  def table(header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(r => r(i).length).max)
    def line(r: Seq[String]) = r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (line(header) +: line(widths.map("-" * _)) +: rows.map(line)).mkString("\n")
  }
}
