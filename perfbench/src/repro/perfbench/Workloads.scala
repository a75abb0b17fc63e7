package repro.perfbench

import org.apache.spark.sql.SparkSession
import repro.core.{AutoTest, Prediction, Predictor, SdcModel}
import repro.core.AutoTest.TrainedModel
import repro.core.Selection.SelectionResult
import repro.corpus.TableColumn
import scala.collection.mutable.ArrayBuffer

/** The untraced workloads that give the end-to-end metrics.
  *
  * Every workload starts the same way. One warm-up training on the pinned
  * corpus compiles the hot code and Spark's query plans and gives the model.
  * Then set-up runs three times and `setup_s` is their median: generate the
  * corpus and the seeded benches, build the All-Constraints and Fine-Select
  * models. Training is not part of the repeated set-up. Its time is
  * `op_s` on train-relational, so work moved into training shows there.
  * The workload's operation then repeats until `--seconds` have passed;
  * `op_s` and `heap_peak_mb` are medians over those operations.
  */
object Workloads {

  val Names: Seq[String] = Seq("train-relational", "select-sweep", "predict")

  val SetupRuns = 3

  final case class Prepared(
      corpus: IndexedSeq[TableColumn],
      model: TrainedModel,
      bench: IndexedSeq[TableColumn],
      all: SdcModel,
      fine: SdcModel,
  )

  def prepare(model: TrainedModel, seed: Long): Prepared =
    Prepared(Inputs.corpus(), model, Inputs.bench(seed), model.allConstraintsModel, model.fineModel)

  /** One operation: `run` is timed; `check` runs afterwards, untimed. */
  final case class Op[T](run: () => T, check: T => Seq[String])

  /** The (B_size, δ) grid of the Table 5 sweep: CSS (no δ) and FSS per budget. */
  def sweepGrid: Seq[(Int, Option[Double])] =
    for (b <- Inputs.Budgets; d <- Seq(None, Some(Inputs.Config.delta))) yield (b, d)

  def sweep(m: TrainedModel): Seq[SelectionResult] =
    sweepGrid.map { case (b, d) => m.reselect(b, Inputs.Config.bFpr, d) }

  def sweepChecks(rs: Seq[SelectionResult]): Seq[String] =
    sweepGrid.zip(rs).flatMap { case ((b, d), r) =>
      Checks.budgets(s"${if (d.isEmpty) "CSS" else "FSS"} B_size=$b", r, b, Inputs.Config.bFpr)
    }

  /** Single-thread `predictColumn` on every column, timing each call, then
    * one Spark batch over the same columns.
    */
  final case class PredictPass(single: Seq[Prediction], batch: Seq[Prediction],
                               colMs: Array[Double], singleS: Double, batchS: Double)

  def predictPass(spark: SparkSession, model: SdcModel, cols: IndexedSeq[TableColumn]): PredictPass = {
    val colMs = new Array[Double](cols.size)
    val single = ArrayBuffer.empty[Prediction]
    cols.indices.foreach { i =>
      val c = cols(i)
      val t0 = System.nanoTime()
      val flagged = model.predictColumn(c.values)
      colMs(i) = (System.nanoTime() - t0) / 1e6
      flagged.foreach { case (v, conf) => single += Prediction(c.colId, v, conf) }
    }
    val (batch, batchS) = Stat.timed(Predictor.predict(spark, model, cols))
    PredictPass(single.toSeq, batch, colMs, colMs.sum / 1e3, batchS)
  }

  def run(spark: SparkSession, workload: String, seed: Long, seconds: Int): Unit = {
    val ledger = new Ledger
    val report = new Report

    val (warm, warmupS) = Stat.timed(AutoTest.train(spark, Inputs.corpus(), Inputs.Config))
    ledger.attempt("warm-up training")(((), Checks.trainedModel(warm) ++ Recorded.modelChecks(warm)))
    var p: Prepared = null
    val setupS = (1 to SetupRuns).map { _ =>
      val (next, t) = Stat.timed(prepare(warm, seed))
      p = next
      t
    }

    val models = Seq("all" -> p.all, "fine" -> p.fine)
    val colMs = models.map(_._1 -> ArrayBuffer.empty[Double]).toMap
    val colsPerS = models.map(_._1 -> ArrayBuffer.empty[Double]).toMap
    val firstPredictions = scala.collection.mutable.Map.empty[String, String]
    var firstSweep: Seq[SelectionResult] = null
    val op: Op[_] = workload match {
      case "train-relational" => Op[TrainedModel](
        () => AutoTest.train(spark, p.corpus, Inputs.Config),
        m => Checks.trainedModel(m) ++ Checks.sameModel(m, p.model))
      case "select-sweep" => Op[Seq[SelectionResult]](
        () => sweep(p.model),
        rs => {
          if (firstSweep == null) firstSweep = rs
          sweepChecks(rs) ++ Recorded.sweepChecks(rs.map(_.lpObjective)) ++
            (if (rs == firstSweep) Nil else Seq("sweep: selections changed between sweeps"))
        })
      case "predict" => Op[Seq[(String, PredictPass)]](
        () => models.map { case (name, model) => name -> predictPass(spark, model, p.bench) },
        passes => passes.flatMap { case (name, r) =>
          colMs(name) ++= r.colMs
          colsPerS(name) += p.bench.size / r.batchS
          val digest = Checks.predictionsDigest(r.single)
          Checks.samePredictions(name, r.single, r.batch) ++
            (if (firstPredictions.getOrElseUpdate(name, digest) == digest) Nil
             else Seq(s"$name: predictions changed between passes"))
        })
    }

    val opS = ArrayBuffer.empty[Double]
    val heapMb = ArrayBuffer.empty[Double]
    val deadline = System.nanoTime() + seconds * 1000000000L
    var i = 0
    while (i == 0 || System.nanoTime() < deadline) {
      i += 1
      ledger.attempt(s"$workload #$i")(measure(op, opS, heapMb))
    }

    ledger.attempt("recorded predictions")(((), Recorded.predictionChecks(spark, p.all, p.fine)))

    println(s"ops $workload: ${opS.size} measured (s: ${opS.mkString(" ")}); " +
      s"set-up ${setupS.size} times (s: ${setupS.mkString(" ")}); warm-up training $warmupS s")
    workload match {
      case "train-relational" => println(s"detail train_s = ${Stat.median(opS.toSeq)} s")
      case "select-sweep"     => println(s"detail select_s = ${Stat.median(opS.toSeq)} s")
      case _ => models.foreach { case (m, _) =>
        val ms = colMs(m).toSeq
        println(s"detail predict_${m}_col_ms_p50 = ${Stat.quantile(ms, 0.5)} ms (${ms.size} columns)")
        println(s"detail predict_${m}_col_ms_p99 = ${Stat.quantile(ms, 0.99)} ms (${ms.size} columns)")
        println(s"detail predict_${m}_cols_per_s = ${Stat.median(colsPerS(m).toSeq)} 1/s")
      }
    }
    report.put("setup_s", Stat.median(setupS), "s")
    report.put("op_s", Stat.median(opS.toSeq), "s")
    report.put("heap_peak_mb", Stat.median(heapMb.toSeq), "MB")
    report.print(ledger)
  }

  private def measure[T](op: Op[T], opS: ArrayBuffer[Double], heapMb: ArrayBuffer[Double]): (Unit, Seq[String]) = {
    val ((out, t), peak) = Jvm.peakLiveMb(Stat.timed(op.run()))
    opS += t
    heapMb += peak
    ((), op.check(out))
  }
}
