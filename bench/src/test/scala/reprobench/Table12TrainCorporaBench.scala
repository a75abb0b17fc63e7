package reprobench

import repro.experiments.Tables

/** Reproduces paper Table 12 (Appendix A): all three Auto-Test variants when
  * trained on Relational-Tables vs Spreadsheet-Tables.
  */
class Table12TrainCorporaBench extends BenchBase {

  private lazy val result = Tables.runTable12(spark)

  test("Table 12 renders and persists") {
    emit("table12", result.rendered)
    assert(result.scores.size == 2 * 3 * 2 * 4)
  }

  test("relational-trained Fine-Select beats spreadsheet-trained on real errors") {
    for (b <- Seq("st", "rt")) {
      val rel = result.scores((("relational-tables", "Fine-Select"), b, "real"))._2
      val spr = result.scores((("spreadsheet-tables", "Fine-Select"), b, "real"))._2
      assert(spr <= rel + 0.02, s"$b: $spr vs $rel")
    }
  }

  test("every variant trained on either corpus detects more as error rates rise") {
    for (c <- Seq("relational-tables", "spreadsheet-tables"); v <- Seq("Fine-Select");
         b <- Seq("st", "rt")) {
      val real = result.scores(((c, v), b, "real"))._2
      val e20 = result.scores(((c, v), b, "+20%"))._2
      assert(e20 >= real - 0.02, s"$c/$v/$b")
    }
  }
}
