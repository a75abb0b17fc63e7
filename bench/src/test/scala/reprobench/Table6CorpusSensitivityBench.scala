package reprobench

import repro.experiments.Tables

/** Reproduces paper Table 6: Fine-Select sensitivity to the training corpus
  * (Relational-Tables vs Spreadsheet-Tables vs TabLib).
  */
class Table6CorpusSensitivityBench extends BenchBase {

  private lazy val result = Tables.runTable6()

  test("Table 6 renders and persists") {
    emit("table6", result.rendered)
    assert(result.scores.size == 3 * 2 * 4)
  }

  test("the noisier Spreadsheet-Tables corpus trains worse models (paper's key claim)") {
    // On each bench/real: spreadsheet-trained AUC below relational-trained.
    for (b <- Seq("st", "rt")) {
      val rel = result.scores(("relational-tables", b, "real"))._2
      val spr = result.scores(("spreadsheet-tables", b, "real"))._2
      assert(spr <= rel + 0.02, s"$b: spreadsheet $spr vs relational $rel")
    }
  }

  test("tablib-trained models are competitive with relational-trained (paper's trend)") {
    val rel = result.scores(("relational-tables", "st", "real"))._2
    val tab = result.scores(("tablib", "st", "real"))._2
    assert(tab > rel - 0.2, s"tablib $tab vs relational $rel")
  }

  test("every corpus shows the rising-error-rate trend") {
    for (c <- repro.experiments.Experiments.CorpusNames; b <- Seq("st", "rt")) {
      val real = result.scores((c, b, "real"))._2
      val e20 = result.scores((c, b, "+20%"))._2
      assert(e20 >= real - 0.02, s"$c/$b: +20% $e20 vs real $real")
    }
  }
}
