package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.dists.{DomainEval, EmbeddingCentroidEval, EvalRegistry, FunctionEval, PatternEval}

class SdcSpec extends AnyFunSuite {

  test("Sdc rejects dOut <= dIn") {
    intercept[IllegalArgumentException](Sdc("x", 0.5, 0.5, 0.9, 0.9))
    intercept[IllegalArgumentException](Sdc("x", 0.6, 0.5, 0.9, 0.9))
  }

  test("Sdc rejects out-of-range matching percentage") {
    intercept[IllegalArgumentException](Sdc("x", 0.1, 0.9, 0.0, 0.9))
    intercept[IllegalArgumentException](Sdc("x", 0.1, 0.9, 1.2, 0.9))
  }

  /** A model holding the single SDC `sdc` over evaluator `eval`. */
  private def model(sdc: Sdc, eval: DomainEval): SdcModel =
    new SdcModel(IndexedSeq(sdc), new EvalRegistry(IndexedSeq(eval)))

  /** Values the single-SDC model flags in `values`. */
  private def flagged(sdc: Sdc, eval: DomainEval, values: Seq[String]): Set[String] =
    model(sdc, eval).predictColumn(values).keySet

  test("covers implements Definition 2's pre-condition ratio") {
    val eval = new FixedEval(Map("a" -> 0.1, "b" -> 0.2, "c" -> 0.9))
    val sdc = Sdc("fixed", 0.5, 0.8, 0.6, 0.9)
    // 2/3 within dIn=0.5 >= m=0.6 → covered
    assert(model(sdc, eval).explainColumn(Seq("a", "b", "c")).covering == Seq(sdc))
    // 1/3 < 0.6 → not covered
    assert(model(sdc, eval).explainColumn(Seq("a", "c", "c")).covering.isEmpty)
  }

  test("covers on empty column is false") {
    val m = model(Sdc("fixed", 0.5, 0.8, 0.6, 0.9), new FixedEval(Map.empty))
    assert(m.explainColumn(Seq.empty) == SdcModel.Explanation(IndexedSeq.empty, Map.empty))
    assert(m.predictColumn(Seq.empty).isEmpty)
  }

  test("the Fig 4 picture: v4 between the balls is NOT an error, v5 outside is") {
    val eval = new FixedEval(Map("v1" -> 0.1, "v2" -> 0.2, "v3" -> 0.3, "v4" -> 0.6, "v5" -> 1.5))
    val sdc = Sdc("fixed", 0.5, 1.0, 0.5, 0.9)
    assert(model(sdc, eval).predictColumn(Seq("v1", "v2", "v3", "v4", "v5")) == Map("v5" -> 0.9))
  }

  test("post-condition returns nothing when the pre-condition fails") {
    val eval = new FixedEval(Map("a" -> 0.9, "b" -> 0.9, "c" -> 2.0))
    assert(flagged(Sdc("fixed", 0.5, 1.0, 0.9, 0.9), eval, Seq("a", "b", "c")).isEmpty)
  }

  test("Example 3 / r6: pattern SDC detects '0.05%' in the unit column C6") {
    val e = new PatternEval("\\d+ [a-zA-Z]+")
    val c6 = Seq("12 oz", "9 oz", "28 oz", "1 oz", "30 oz", "18 oz", "44 oz",
                 "3 oz", "7 oz", "21 oz", "16 oz", "50 oz", "13 oz", "60 oz",
                 "8 oz", "5 oz", "40 oz", "33 oz", "25 oz", "0.05%")
    assert(flagged(Sdc(e.id, 0.0, 0.5, 0.95, 0.9), e, c6) == Set("0.05%"))
  }

  test("Example 3 / r7-style: function SDC detects 'new facility' in a date column") {
    val e = FunctionEval.allEvals.find(_.id == "fun:validate_date").get
    val c7 = Seq("12/3/2020", "11/5/2020", "2/5/2021", "10/23/2020", "10/7/2020",
                 "3/26/2021", "4/2/2021", "7/9/2020", "8/30/2020", "new facility")
    assert(flagged(Sdc(e.id, 0.0, 0.5, 0.9, 0.95), e, c7) == Set("new facility"))
  }

  test("r3-style: embedding SDC detects the month typo 'febuary'") {
    val e = new EmbeddingCentroidEval(EvalRegistry.gloveEmbedding, "january")
    val months = Seq("january", "march", "april", "may", "june", "july",
                     "august", "september", "october", "november", "december", "febuary")
    val dists = months.map(e.distance)
    val inBall = dists.init.max // all real months
    val sdc = Sdc(e.id, inBall + 0.1, (inBall + dists.last) / 2, 0.9, 0.9)
    assert(flagged(sdc, e, months) == Set("febuary"))
  }

  test("SDC does not apply to columns of other domains (Example 4)") {
    val e = new PatternEval("\\d+ [a-zA-Z]+")
    val countryCol = Seq("germany", "austria", "france", "italy", "switzerland")
    assert(flagged(Sdc(e.id, 0.0, 0.5, 0.95, 0.9), e, countryCol).isEmpty)
  }

  /** test evaluator with a fixed distance table (unknown values = 10.0) */
  private final class FixedEval(table: Map[String, Double]) extends DomainEval {
    override val id = "fixed"
    override val family = DomainEval.Cta
    override def distance(v: String): Double = table.getOrElse(v, 10.0)
  }
}
