package repro.perfbench

import java.io.File
import org.apache.spark.sql.SparkSession
import repro.core.{AutoTest, Predictor}
import repro.eval.PrCurve

/** Benchmark entry point, started by `perfbench/run.py`:
  *
  *   --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *       one run; the last line of standard output is the JSON result
  *   --record
  *       print the outputs on the pinned corpus, to record them in Recorded
  *   --reference
  *       train at the 3,000-column reference scale on the default seed and
  *       check Fine-Select PR-AUC against bench/results/table5.txt
  *
  * System property `perfbench.work` names the directory for Spark's
  * scratch files and the trace output.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.sliding(2, 2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val flags = args.filter(_.startsWith("--")).map(_.drop(2)).toSet
    val workDir = new File(sys.props.getOrElse("perfbench.work", ".bench_build/perfbench/work")).getAbsoluteFile
    val spark = session(workDir)
    val code =
      try {
        if (flags("record")) {
          println(Recorded.compute(spark, AutoTest.train(spark, Inputs.corpus(), Inputs.Config)))
          0
        }
        else if (flags("reference")) reference(spark)
        else {
          val workload = opts.getOrElse("workload", "")
          require(Workloads.Names.contains(workload),
            s"unknown workload '$workload'; expected one of ${Workloads.Names.mkString(", ")}")
          val seed = opts.getOrElse("seed", "0").toLong
          val seconds = opts.getOrElse("seconds", "10").toInt
          if (opts.getOrElse("trace", "0") == "1") Traced.run(spark, workload, seed, workDir)
          else Workloads.run(spark, workload, seed, seconds)
          0
        }
      } finally spark.stop()
    sys.exit(code)
  }

  /** Local-mode Spark on every core, configured as the repository's jobs
    * configure it, with scratch files under `workDir`.
    */
  def session(workDir: File): SparkSession = {
    val cores = Runtime.getRuntime.availableProcessors
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .config("spark.local.dir", new File(workDir, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(workDir, "spark-warehouse").getPath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    println(s"env nproc=$cores heap_max_mb=${Jvm.heapMaxMb} spark_master=${spark.sparkContext.master} " +
      s"spark_parallelism=${spark.sparkContext.defaultParallelism} java=${sys.props("java.version")}")
    spark
  }

  /** Fine-Select PR-AUC at the reference scale must read as in
    * bench/results/table5.txt (B_size 500 row): ST 0.61, RT 0.56.
    */
  private def reference(spark: SparkSession): Int = {
    val corpus = Inputs.corpus(Inputs.ReferenceCols)
    val (m, trainS) = Stat.timed(AutoTest.train(spark, corpus, Inputs.ReferenceConfig))
    println(f"reference train_s = $trainS%.1f s, R_all ${m.assessed.size}, " +
      s"CSS/FSS ${m.coarse.selected.size}/${m.fine.selected.size} selected, " +
      s"LP iterations ${m.coarse.lpIterations}/${m.fine.lpIterations}")
    val bench = Inputs.bench(Inputs.DefaultSeed)
    val fine = m.fineModel
    val results = Seq("st" -> "0.61", "rt" -> "0.56").map { case (name, want) =>
      val cols = bench.filter(_.colId.startsWith(s"$name-bench"))
      val got = f"${PrCurve.evaluate(Predictor.predict(spark, fine, cols), cols).prAuc}%.2f"
      println(s"reference Fine-Select ${name.toUpperCase} PR-AUC = $got (table5.txt: $want)")
      got == want
    }
    if (results.forall(identity)) 0 else 1
  }
}
