package repro.experiments

import org.scalatest.funsuite.AnyFunSuite

class ExperimentsSpec extends AnyFunSuite {

  private val table4Rows: Seq[(String, String)] =
    Seq("All-Constraints", "Fine-Select", "Coarse-Select").map("Ours" -> _) ++
      Seq("Sherlock", "Doduo", "Glove", "SentenceBERT", "Regex", "DataPrep", "Validators")
        .map("Column-type" -> _) ++
      Seq("AutoDetect", "Katara").map("Data-cleaning" -> _) ++
      Seq("SVDD", "DBOD", "LOF", "RKDE", "PPCA", "IForest").map("Outlier" -> _) ++
      Seq("few-shot-with-COT", "few-shot-no-COT", "zero-shot-with-COT", "zero-shot-no-COT",
        "GPT-finetuned").map("GPT" -> _) ++
      Seq("Vendor-A", "Vendor-B").map("Commercial" -> _)

  test("Table 4 lists its methods in the paper's row order, each name once") {
    val rows = Experiments.methods.map(m => (m.group, m.name))
    assert(rows == table4Rows)
    assert(rows.map(_._2).distinct.size == rows.size)
    // as in the paper, GPT-finetuned is scored on real errors only
    assert(Experiments.methods.filter(_.realOnly).map(_.name) == Seq("GPT-finetuned"))
  }

  test("method roster covers the paper's Table 4 groups") {
    val groups = Experiments.methods.map(_.group).distinct
    assert(groups == Seq("Ours", "Column-type", "Data-cleaning", "Outlier", "GPT", "Commercial"))
  }

  test("method roster has the Auto-Test family plus 20+ baselines") {
    val (ours, baselines) = Experiments.methods.partition(_.group == "Ours")
    assert(ours == Experiments.Variants)
    assert(ours.map(_.name) == Seq("All-Constraints", "Fine-Select", "Coarse-Select"))
    assert(baselines.size >= 20, s"only ${baselines.size} baselines")
  }

  test("every non-trained roster method resolves to a detector") {
    Experiments.methods.collect { case b: Experiments.Baseline if b.name != "AutoDetect" => b }
      .foreach(b => assert(b.detector.name == b.name, b.name))
  }

  test("looking up a method twice gives the same detector instance") {
    Seq("Sherlock", "Katara", "LOF", "GPT-finetuned", "Vendor-B")
      .foreach(n => assert(Baselines(n) eq Baselines(n), n))
    assert(Experiments.methods.find(_.name == "Fine-Select").exists(_ eq Experiments.FineSelect))
  }

  test("benchSetting rejects an unknown bench or setting, naming the value") {
    Seq(("xt", "real", "'xt'"), ("st", "+7%", "'+7%'")).foreach { case (bench, setting, named) =>
      val e = intercept[IllegalArgumentException](Experiments.benchSetting(bench, setting))
      assert(e.getMessage.contains(named), e.getMessage)
    }
  }

  test("error settings are the paper's real/+5/+10/+20 grid") {
    assert(Experiments.ErrorSettings == Seq("real" -> 0.0, "+5%" -> 0.05, "+10%" -> 0.10, "+20%" -> 0.20))
  }

  test("corpus() rejects unknown names") {
    intercept[IllegalArgumentException](Experiments.corpus("nope"))
  }

  test("fmtPair renders two decimals") {
    assert(Experiments.fmtPair((0.5, 0.666)) == "0.50, 0.67")
    // fmt, which fmtPair is built on, rounds half up to any number of decimals
    assert(Experiments.fmt(12.5, 0) == "13" && Experiments.fmt(1.2345e-4, 4) == "0.0001")
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
