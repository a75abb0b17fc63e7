package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{Predictor, SdcModel}
import repro.core.AutoTest.TrainedModel
import repro.corpus.TableColumn

/** Outputs of the unmodified program on the pinned training corpus, checked
  * by every run.
  *
  * Contingency counts, detections and predictions must match exactly (the
  * program is deterministic); LP objectives to solver tolerance, since
  * another simplex may stop at a different optimal vertex with the same
  * objective. Predictions are digested on a slice of the default-seed
  * benches, so they are checked whatever the run's seed.
  * `run.py --record` prints the values to paste here.
  */
object Recorded {

  /** Leading columns of the default ST and RT benches whose predictions are digested. */
  val SliceCols: Int = 200

  final case class Outputs(
      contingency: String,
      detections: String,
      cssObjective: Double,
      fssObjective: Double,
      sweepObjectives: Seq[Double],
      allPredictions: String,
      finePredictions: String,
  )

  val Expected: Outputs = Outputs(
    contingency = "f15310ee72a431c98e2cd83d",
    detections = "a002438a423697babe14da69",
    cssObjective = 604.9159212880145,
    fssObjective = 580.1841385597083,
    sweepObjectives = Seq.fill(Inputs.Budgets.size)(Seq(604.9159212880145, 580.1841385597083)).flatten,
    allPredictions = "6db5f113d2d59f7244870c0b",
    finePredictions = "9fc1aea26eab47d0aef227aa",
  )

  def slice: IndexedSeq[TableColumn] = Inputs.bench(Inputs.DefaultSeed, SliceCols)

  def compute(spark: SparkSession, m: TrainedModel): Outputs = Outputs(
    Checks.countsDigest(m.contingencyCounts),
    Checks.detectionsDigest(m.detections),
    m.coarse.lpObjective,
    m.fine.lpObjective,
    Workloads.sweep(m).map(_.lpObjective),
    Checks.predictionsDigest(Predictor.predict(spark, m.allConstraintsModel, slice)),
    Checks.predictionsDigest(Predictor.predict(spark, m.fineModel, slice)),
  )

  def modelChecks(m: TrainedModel): Seq[String] =
    Seq(
      ("contingency counts", Checks.countsDigest(m.contingencyCounts), Expected.contingency),
      ("detections", Checks.detectionsDigest(m.detections), Expected.detections),
    ).collect { case (what, got, want) if got != want => s"$what digest $got, recorded $want" } ++
      Checks.sameObjective("CSS", m.coarse.lpObjective, Expected.cssObjective) ++
      Checks.sameObjective("FSS", m.fine.lpObjective, Expected.fssObjective)

  def sweepChecks(objectives: Seq[Double]): Seq[String] =
    if (objectives.size != Expected.sweepObjectives.size) Seq("sweep: number of selections differs from the record")
    else objectives.zip(Expected.sweepObjectives).zip(Workloads.sweepGrid).flatMap { case ((got, want), (b, d)) =>
      Checks.sameObjective(s"${if (d.isEmpty) "CSS" else "FSS"} B_size=$b", got, want)
    }

  def predictionChecks(spark: SparkSession, all: SdcModel, fine: SdcModel): Seq[String] = {
    val cols = slice
    Seq(
      ("All-Constraints", all, Expected.allPredictions),
      ("Fine-Select", fine, Expected.finePredictions),
    ).flatMap { case (what, model, want) =>
      val got = Checks.predictionsDigest(Predictor.predict(spark, model, cols))
      if (got == want) Nil else Seq(s"$what predictions digest $got, recorded $want")
    }
  }
}
