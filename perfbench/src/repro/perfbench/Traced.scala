package repro.perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.core.AutoTest
import repro.core.AutoTest.TrainedModel
import repro.dists.DomainEval
import repro.util.Det

/** The traced run: the per-layer metrics of every layer, whichever
  * workload is named.
  *
  * After a warm-up training, as in the untraced workloads, it
  *   1. alternates untraced `AutoTest.train` with the traced stage-by-stage
  *      composition (twice each) and checks the composition reproduces
  *      `train` exactly; the difference of their medians is the tracing
  *      overhead;
  *   2. trains on half the corpus (Fig 14 linearity);
  *   3. runs one traced selection sweep and one traced prediction pass per
  *      model;
  *   4. measures single-thread distance throughput per evaluator family on
  *      a fixed sample of the corpus' values.
  * Stage metrics are per training (the mean of the traced trainings). The
  * spans are written to `<work>/traces/<workload>-seed<seed>.jsonl`.
  */
object Traced {

  val TracedTrains = 2

  /** Layers whose self time is reported, per training or per pass. */
  private val TrainLayers = Seq("corpus", "dists", "candidategen", "assessment", "syncorpus", "selection")

  def run(spark: SparkSession, workload: String, seed: Long, workDir: File): Unit = {
    val ledger = new Ledger
    val report = new Report
    val cfg = Inputs.Config
    val tracer = new Tracer

    val (corpus, generateS) = Stat.timed(Inputs.corpus())
    val bench = Inputs.bench(seed)
    val warm = AutoTest.train(spark, corpus, cfg)
    ledger.attempt("set-up")(((), Checks.trainedModel(warm) ++ Recorded.modelChecks(warm)))

    // ---- 1. untraced vs traced training, composition check ---------------
    val gc0 = Jvm.gcTotals()
    val untracedS = Seq.newBuilder[Double]
    val tracedS = Seq.newBuilder[Double]
    var staged: TrainedModel = null
    (1 to TracedTrains).foreach { i =>
      val (plain, tu) = Stat.timed(AutoTest.train(spark, corpus, cfg))
      val (traced, tt) = Stat.timed(StagedTrain.run(spark, corpus, cfg, tracer))
      untracedS += tu
      tracedS += tt
      staged = traced
      ledger.attempt(s"composition #$i") {
        ((), StagedTrain.compare(traced, plain) ++ Checks.trainedModel(traced) ++ Checks.sameModel(plain, warm))
      }
    }

    // ---- 2. half-scale training ------------------------------------------
    val half = Inputs.corpus(Inputs.CorpusCols / 2)
    val halfS = (1 to 2).map { i =>
      val (m, t) = Stat.timed(AutoTest.train(spark, half, cfg))
      ledger.attempt(s"half-scale train #$i")(((), Checks.trainedModel(m)))
      t
    }
    val gc1 = Jvm.gcTotals()

    // ---- 3a. selection sweep -------------------------------------------
    val sweep = tracer.span("sweep") {
      Workloads.sweepGrid.map { case (b, d) =>
        tracer.span("sweep.reselect")(staged.reselect(b, cfg.bFpr, d))
      }
    }
    ledger.attempt("sweep")(((), Workloads.sweepChecks(sweep) ++ Recorded.sweepChecks(sweep.map(_.lpObjective))))
    val gc2 = Jvm.gcTotals()

    // ---- 3b. prediction ----------------------------------------------------
    val (all, fine) = tracer.span("predict") {
      tracer.span("predictor.model_build")((staged.allConstraintsModel, staged.fineModel))
    }
    val passes = Seq("all" -> all, "fine" -> fine).map { case (name, model) =>
      val pass = tracer.span("predict")(tracer.span(s"predictor.$name")(Workloads.predictPass(spark, model, bench)))
      ledger.attempt(s"predict $name")(((), Checks.samePredictions(name, pass.single, pass.batch)))
      name -> pass
    }.toMap
    val gc3 = Jvm.gcTotals()

    // ---- 4. distance throughput ----------------------------------------------
    val values = corpus.flatMap(_.values).distinct
    val sample = Det.sampleIndices(Det.hashString("perfbench-dists"), values.size, math.min(1000, values.size)).map(values)
    val distPerS = DomainEval.families.map(f => f -> distanceThroughput(staged.registry.byFamily(f), sample)).toMap

    ledger.attempt("recorded predictions")(((), Recorded.predictionChecks(spark, all, fine)))
    val traceFile = new File(workDir, s"traces/$workload-seed$seed.jsonl")
    tracer.write(traceFile)
    println(s"trace ${tracer.all.size} spans written to $traceFile")

    // ---- metrics -------------------------------------------------------------
    def perTrain(name: String) = tracer.total(name) / TracedTrains
    val distinctValues = corpus.iterator.map(_.values.size.toLong).sum
    val nCandidates = staged.allPlans.iterator.map(_.candidates.size).sum
    val self = tracer.selfByLayer

    report.put("corpus.generate_s", generateS, "s")
    report.put("corpus.to_df_s", perTrain("corpus.to_df"), "s")
    report.put("corpus.distinct_values", distinctValues.toDouble, "count")
    report.put("dists.patterns.mine_s", perTrain("dists.patterns.mine"), "s")
    report.put("dists.registry.build_s", perTrain("dists.registry.build"), "s")
    DomainEval.families.foreach { f =>
      val n = staged.registry.byFamily(f).size
      report.put(s"dists.$f.evaluators", n.toDouble, "count")
      report.put(s"dists.$f.dist_per_s", distPerS(f), "1/s")
      report.put(s"dists.$f.contingency_calls", (distinctValues * n).toDouble, "count")
    }
    report.put("candidategen.enumerate_s", perTrain("candidategen.enumerate"), "s")
    report.put("candidategen.candidates", nCandidates.toDouble, "count")
    report.put("assessment.contingency_s", perTrain("assessment.contingency"), "s")
    report.put("assessment.assess_s", perTrain("assessment.assess"), "s")
    report.put("assessment.r_all", staged.assessed.size.toDouble, "count")
    report.put("assessment.r_all_ratio", staged.assessed.size.toDouble / nCandidates, "ratio")
    report.put("syncorpus.generate_s", perTrain("syncorpus.generate"), "s")
    report.put("syncorpus.detections_s", perTrain("syncorpus.detections"), "s")
    report.put("syncorpus.detection_pairs", staged.detections.size.toDouble, "count")
    report.put("syncorpus.detected_ratio", staged.detections.map(_._1).distinct.size.toDouble / cfg.nSyn, "ratio")
    report.put("selection.css_s", perTrain("selection.css"), "s")
    report.put("selection.fss_s", perTrain("selection.fss"), "s")
    report.put("lp.css_iterations", staged.coarse.lpIterations.toDouble, "count")
    report.put("lp.fss_iterations", staged.fine.lpIterations.toDouble, "count")
    report.put("selection.css_selected", staged.coarse.selected.size.toDouble, "count")
    report.put("selection.fss_selected", staged.fine.selected.size.toDouble, "count")
    report.put("selection.css_rounding_ratio", staged.coarse.roundedObjective / staged.coarse.lpObjective, "ratio")
    report.put("selection.sweep_s", tracer.total("sweep"), "s")
    report.put("lp.sweep_iterations", sweep.map(_.lpIterations).sum.toDouble, "count")
    report.put("predictor.model_build_s", tracer.total("predictor.model_build"), "s")
    report.put("predictor.all_preconditions", all.nPreConditions.toDouble, "count")
    report.put("predictor.fine_preconditions", fine.nPreConditions.toDouble, "count")
    Seq("all", "fine").foreach { m =>
      val pass = passes(m)
      report.put(s"predictor.flagged_$m", pass.batch.size.toDouble, "count")
      report.put(s"predictor.${m}_col_ms_p50", Stat.quantile(pass.colMs.toSeq, 0.5), "ms")
      report.put(s"predictor.${m}_col_ms_p99", Stat.quantile(pass.colMs.toSeq, 0.99), "ms")
      report.put(s"predictor.${m}_cols_per_s", bench.size / pass.batchS, "1/s")
      report.put(s"predictor.${m}_spark_speedup", pass.singleS / pass.batchS, "ratio")
    }
    TrainLayers.foreach(l => report.put(s"$l.self_s", self.getOrElse(l, 0.0) / TracedTrains, "s"))
    report.put("predictor.self_s", self.getOrElse("predictor", 0.0), "s")
    Seq("train" -> (gc0, gc1), "select" -> (gc1, gc2), "predict" -> (gc2, gc3)).foreach {
      case (phase, ((c0, s0), (c1, s1))) =>
        report.put(s"jvm.$phase.gc_s", s1 - s0, "s")
        report.put(s"jvm.$phase.gc_count", (c1 - c0).toDouble, "count")
    }
    val untraced = Stat.median(untracedS.result())
    val traced = Stat.median(tracedS.result())
    report.put("train.untraced_s", untraced, "s")
    report.put("train.traced_s", traced, "s")
    report.put("trace.overhead_s", traced - untraced, "s")
    report.put("train.scaling_ratio", untraced / Stat.median(halfS), "ratio")
    report.print(ledger)
  }

  /** Single-thread distance calls per second over `sample`, repeating
    * passes until at least a quarter of a second has been measured.
    */
  private def distanceThroughput(evals: Seq[DomainEval], sample: Seq[String]): Double = {
    if (evals.isEmpty || sample.isEmpty) return 0.0
    val arr = sample.toArray
    var calls = 0L
    var sink = 0.0
    val t0 = System.nanoTime()
    while (System.nanoTime() - t0 < 250000000L) {
      evals.foreach { e =>
        var i = 0
        while (i < arr.length) { sink += e.distance(arr(i)); i += 1 }
      }
      calls += evals.size.toLong * arr.length
    }
    val s = (System.nanoTime() - t0) / 1e9
    if (sink.isNaN) Double.NaN else calls / s
  }
}
