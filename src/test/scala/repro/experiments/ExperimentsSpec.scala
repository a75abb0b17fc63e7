package repro.experiments

import org.scalatest.funsuite.AnyFunSuite

class ExperimentsSpec extends AnyFunSuite {

  test("method roster covers the paper's Table 4 groups") {
    val groups = Experiments.methodRoster.map(_._1).distinct
    assert(groups == Seq("Ours", "Column-type", "Data-cleaning", "Outlier", "GPT", "Commercial"))
  }

  test("method roster has the Auto-Test family plus 20+ baselines") {
    val (ours, baselines) = Experiments.methodRoster.partition(_._1 == "Ours")
    assert(ours.map(_._2) == Seq("All-Constraints", "Fine-Select", "Coarse-Select"))
    assert(baselines.size >= 20, s"only ${baselines.size} baselines")
  }

  test("every non-trained roster method resolves to a detector") {
    val trainedMethods = Set("All-Constraints", "Fine-Select", "Coarse-Select", "AutoDetect")
    Experiments.methodRoster.collect { case (_, m) if !trainedMethods.contains(m) => m }
      .foreach { m => assert(Experiments.detectorByName(m).name.nonEmpty, m) }
  }

  test("detectorByName rejects unknown methods") {
    intercept[IllegalArgumentException](Experiments.detectorByName("nope"))
  }

  test("error settings are the paper's real/+5/+10/+20 grid") {
    assert(Experiments.ErrorSettings == Seq("real" -> 0.0, "+5%" -> 0.05, "+10%" -> 0.10, "+20%" -> 0.20))
  }

  test("envInt rejects a non-integer or non-positive value, naming the variable") {
    assert(Experiments.envInt("REPRO_CORPUS_COLS", 3000, Map.empty) == 3000)
    assert(Experiments.envInt("REPRO_CORPUS_COLS", 3000, Map("REPRO_CORPUS_COLS" -> "12")) == 12)
    Seq("abc", "", "1.5", "0", "-3").foreach { v =>
      val e = intercept[IllegalArgumentException](
        Experiments.envInt("REPRO_CORPUS_COLS", 3000, Map("REPRO_CORPUS_COLS" -> v)))
      assert(e.getMessage.contains("REPRO_CORPUS_COLS") && e.getMessage.contains(s"'$v'"), e.getMessage)
    }
  }

  test("corpus() rejects unknown names") {
    intercept[IllegalArgumentException](Experiments.corpus("nope"))
  }

  test("fmtPair renders two decimals") {
    assert(Experiments.fmtPair((0.5, 0.666)) == "0.50, 0.67")
  }

  test("table formatting aligns columns") {
    val t = Experiments.table(Seq("a", "bb"), Seq(Seq("xxx", "y"), Seq("z", "wwww")))
    val lines = t.split("\n")
    assert(lines.forall(_.length == lines.head.length))
    assert(lines(1).forall(c => c == '|' || c == '-' || c == ' '))
  }

  test("training config matches the paper's defaults (scaled B_FPR documented)") {
    val cfg = Experiments.trainConfig
    assert(cfg.bSize == 500)
    assert(cfg.bFpr == 0.1)
    assert(cfg.delta == 1e-3)
  }
}
