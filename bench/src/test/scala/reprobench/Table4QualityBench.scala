package reprobench

import repro.experiments.Tables

/** Reproduces paper Table 4: quality of Auto-Test (All-Constraints,
  * Fine-Select, Coarse-Select) vs 20 baselines on ST-Bench and RT-Bench,
  * with real errors and +5/10/20% synthetic injection.
  */
class Table4QualityBench extends BenchBase {

  private lazy val result = Tables.runTable4(spark)

  private def auc(method: String, bench: String, setting: String = "real"): Double =
    result.scores((method, bench, setting))._2
  private def f1(method: String, bench: String, setting: String = "real"): Double =
    result.scores((method, bench, setting))._1

  private val baselines: Seq[String] =
    repro.experiments.Experiments.methods.collect { case m if m.group != "Ours" => m.name }

  test("Table 4 renders and persists") {
    emit("table4", result.rendered)
    assert(result.scores.nonEmpty)
  }

  test("Fine-Select beats every baseline on ST-Bench PR-AUC (paper's headline claim)") {
    val fine = auc("Fine-Select", "st")
    baselines.foreach { m =>
      assert(fine > auc(m, "st"), f"$m: ${auc(m, "st")}%.3f >= Fine-Select $fine%.3f")
    }
  }

  test("Fine-Select beats every baseline on RT-Bench PR-AUC") {
    val fine = auc("Fine-Select", "rt")
    baselines.foreach { m =>
      assert(fine > auc(m, "rt"), f"$m: ${auc(m, "rt")}%.3f >= Fine-Select $fine%.3f")
    }
  }

  test("Fine-Select achieves nonzero F1@P=0.8 where most baselines sit at 0") {
    assert(f1("Fine-Select", "st") > 0.0)
    val zeroF1 = baselines.count(m => f1(m, "st") == 0.0)
    assert(zeroF1 > baselines.size / 2, s"only $zeroF1 baselines at F1=0")
  }

  test("GPT variants never reach P=0.8 (F1@P=0.8 = 0 rows of the paper)") {
    Seq("few-shot-with-COT", "few-shot-no-COT", "zero-shot-with-COT", "zero-shot-no-COT")
      .foreach { m =>
        assert(f1(m, "st") == 0.0, m)
        assert(f1(m, "rt") == 0.0, m)
      }
  }

  test("quality grows with the synthetic error rate for Fine-Select (Table 4 trend)") {
    for (b <- Seq("st", "rt")) {
      assert(auc("Fine-Select", b, "+20%") > auc("Fine-Select", b, "real"),
        s"$b: +20% should beat real")
    }
  }

  test("commercial vendors are near zero (paper's Vendor-A/B rows)") {
    Seq("Vendor-A", "Vendor-B").foreach { m =>
      assert(f1(m, "st") == 0.0 && f1(m, "rt") == 0.0, m)
      assert(auc(m, "st") < auc("Fine-Select", "st") / 2, m)
    }
  }

  test("Fine-Select >= Coarse-Select on PR-AUC (FSS's confidence-aware advantage)") {
    for (b <- Seq("st", "rt")) {
      assert(auc("Fine-Select", b) >= auc("Coarse-Select", b) - 0.02, b)
    }
  }
}
