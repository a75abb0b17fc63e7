package reprobench

import repro.experiments.Tables

/** Reproduces paper Table 7: contribution of each column-type detection
  * family (drop one family at a time from Fine-Select).
  */
class Table7MethodAblationBench extends BenchBase {

  private lazy val result = Tables.runTable7(spark)

  test("Table 7 renders and persists") {
    emit("table7", result.rendered)
    assert(result.scores.size == 5 * 2)
  }

  test("no ablated variant beats the full Fine-Select by a margin") {
    // A small gain is possible when dropping a family frees FPR/size budget
    // that re-selection spends elsewhere (LP + randomized rounding noise);
    // the claim is that no family's removal *helps materially*.
    for (v <- Seq("no-CTA", "no-embedding", "no-pattern", "no-function"); b <- Seq("st", "rt")) {
      val full = result.scores(("Fine-Select", b, "real"))._2
      val abl  = result.scores((v, b, "real"))._2
      assert(abl <= full + 0.10, s"$v/$b: $abl vs full $full")
    }
  }

  test("at least two families contribute measurably on some bench (paper: all four do)") {
    val contributing = Seq("no-CTA", "no-embedding", "no-pattern", "no-function").count { v =>
      Seq("st", "rt").exists { b =>
        result.scores((v, b, "real"))._2 < result.scores(("Fine-Select", b, "real"))._2 - 0.005
      }
    }
    assert(contributing >= 2, s"only $contributing families contribute")
  }
}
