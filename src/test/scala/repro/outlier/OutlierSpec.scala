package repro.outlier

import org.scalatest.funsuite.AnyFunSuite
import repro.corpus.TableColumn
import repro.experiments.Baselines

class OutlierSpec extends AnyFunSuite {

  private def col(id: String, vals: Seq[String]) = TableColumn(id, "d", vals, Nil, vals.size.toLong)

  // A syntactically homogeneous column with one glaring outlier value.
  private val idCol = col("ids", (1 to 25).map(j => s"tt00${5400 + j}") :+ "completely different string !!!")

  test("feature vectors have the declared dimension and bounded values") {
    Seq("abc", "12/3/2020", "", "A B C 123 !!!", null).foreach { v =>
      val f = Features.of(v)
      assert(f.length == Features.Dim)
      f.foreach(x => assert(x >= 0.0 && x <= 1.0, s"feature $x for '$v'"))
    }
  }

  test("charEntropy of uniform repeats is 0, mixed text positive") {
    assert(Features.charEntropy("aaaa") == 0.0)
    assert(Features.charEntropy("abcd") > 1.9)
    assert(Features.charEntropy("") == 0.0)
  }

  test("digit fraction feature separates numeric from alpha values") {
    assert(Features.of("12345")(1) == 1.0)
    assert(Features.of("hello")(1) == 0.0)
  }

  test("every detector has a distinct name") {
    val names = Baselines.group("Outlier").map(_.name)
    assert(names == Seq("SVDD", "DBOD", "LOF", "RKDE", "PPCA", "IForest"))
  }

  test("detectors skip very small columns") {
    val tiny = col("tiny", Seq("a", "b", "c"))
    Baselines.group("Outlier").foreach(d => assert(d.detect(tiny).isEmpty, d.name))
  }

  test("every detector ranks the syntactic outlier above the median") {
    Baselines.group("Outlier").foreach { d =>
      val preds = d.detect(idCol)
      assert(preds.map(_._1).contains("completely different string !!!"),
        s"${d.name} missed the outlier: ${preds.take(5)}")
    }
  }

  test("every detector gives the outlier the top score") {
    Baselines.group("Outlier").foreach { d =>
      val preds = d.detect(idCol)
      assert(preds.maxBy(_._2)._1 == "completely different string !!!", d.name)
    }
  }

  test("detectors are deterministic (seeded by column id)") {
    Baselines.group("Outlier").foreach { d =>
      assert(d.detect(idCol) == d.detect(idCol), d.name)
    }
  }

  test("detectors cannot distinguish valid rare formats — the paper's local-feature limitation") {
    // A gene-style column: mixed but all-valid syntax. Local outlier methods
    // flag minority-syntax values even though nothing is an error.
    val geneCol = col("genes", (0 until 30).map(i => repro.domains.Vocab.genGene(i.toLong)))
    val flagged = Baselines.group("Outlier").map(d => d.detect(geneCol).size)
    assert(flagged.exists(_ > 0), "expected local methods to over-flag mixed-syntax valid columns")
  }

  test("LOF scores are near 1 for uniform clouds") {
    val uniform = col("u", (1 to 30).map(j => s"aa${100 + j}"))
    val preds = new OutlierDetectors.Lof().detect(uniform)
    preds.foreach { case (_, s) => assert(s < 5.0, s"LOF score $s") }
  }

  test("IForest score is in (0, 1]") {
    Baselines("IForest").detect(idCol).foreach { case (_, s) =>
      assert(s > 0.0 && s <= 1.0)
    }
  }

  test("PPCA reconstruction error is non-negative") {
    Baselines("PPCA").detect(idCol).foreach { case (_, s) => assert(s >= 0.0) }
  }

  test("SVDD distance from robust centre is non-negative") {
    Baselines("SVDD").detect(idCol).foreach { case (_, s) => assert(s >= 0.0) }
  }

  test("DBOD scores are fractions in [0, 1]") {
    Baselines("DBOD").detect(idCol).foreach { case (_, s) =>
      assert(s >= 0.0 && s <= 1.0)
    }
  }
}
