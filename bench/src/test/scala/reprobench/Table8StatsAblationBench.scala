package reprobench

import repro.experiments.Tables

/** Reproduces paper Table 8: ablation of the Wilson score interval and
  * Cohen's h statistical gates (evaluated on All-Constraints).
  */
class Table8StatsAblationBench extends BenchBase {

  private lazy val Tables.Table8Result(result, ruleCounts) = Tables.runTable8(spark)

  test("Table 8 renders and persists") {
    emit("table8", result.rendered)
    assert(result.scores.size == 3 * 2)
  }

  test("removing the Wilson interval hurts high-precision quality (F1@P=0.8)") {
    // The paper observes the biggest drops in F1@P=0.8 without Wilson.
    val drops = Seq("st", "rt").count { b =>
      result.scores(("no Wilson score interval", b, "real"))._1 <=
        result.scores(("All-Constraints", b, "real"))._1 + 1e-9
    }
    assert(drops >= 1, "no-Wilson should not beat All-Constraints F1 on both benches")
  }

  test("removing Cohen's h does not improve PR-AUC") {
    for (b <- Seq("st", "rt")) {
      val full = result.scores(("All-Constraints", b, "real"))._2
      val noH  = result.scores(("no Cohen's h", b, "real"))._2
      assert(noH <= full + 0.03, s"$b: no-Cohen $noH vs $full")
    }
  }

  test("removing Wilson hurts PR-AUC on both benches (over-confident ranking)") {
    for (b <- Seq("st", "rt")) {
      assert(result.scores(("no Wilson score interval", b, "real"))._2 <=
        result.scores(("All-Constraints", b, "real"))._2 + 1e-9, b)
    }
  }

  test("dropping the Cohen's h gate admits at least as many rules") {
    assert(ruleCounts("no Cohen's h") >= ruleCounts("All-Constraints"))
    assert(ruleCounts("no Wilson score interval") >= ruleCounts("All-Constraints"))
  }
}
