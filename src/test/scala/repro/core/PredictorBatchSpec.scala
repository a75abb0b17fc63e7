package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import repro.{SparkJobs, SparkSpec}
import repro.corpus.TableColumn
import repro.dists.{CtaClassifier, DomainEval, EmbeddingCentroidEval, EvalRegistry, FunctionEval, PatternEval}
import repro.domains.Vocab
import repro.util.Det

/** A fixed distance per value from a small set, NaN for null. */
final class HashedFixedEval extends DomainEval {
  override val id: String = "fun:hashed_fixed"
  override def family: String = DomainEval.Function
  private val levels = Array(0.0, 0.1, 0.25, 0.4, 0.5, 0.75, 1.0, 1.5, 3.0)
  override def distance(v: String): Double =
    if (v == null) Double.NaN else levels(Det.nextInt(Det.hashString(v), levels.length))
}

class PredictorBatchSpec extends SparkSpec {

  private val fixedEval = new HashedFixedEval
  private val registry = new EvalRegistry(
    CtaClassifier.sherlockBank(Vocab.nlDomains).take(3) ++ CtaClassifier.doduoBank(Vocab.nlDomains).take(2) ++
    Seq("january", "seattle").map(new EmbeddingCentroidEval(EvalRegistry.gloveEmbedding, _)) ++
      Seq("march", "red").map(new EmbeddingCentroidEval(EvalRegistry.sbertEmbedding, _)) ++
    IndexedSeq(new PatternEval("\\d+ [a-zA-Z]+"), new PatternEval("[a-zA-Z]+\\d+")) ++
    FunctionEval.allEvals :+ fixedEval)

  // Grid and off-grid thresholds, across the ranges of all four families.
  private val thresholds = Seq(0.0, 0.05, 0.1, 0.25, 0.3, 0.37, 0.5, 0.62, 0.9, 1.0, 1.3, 2.2, 3.7, 5.0)

  // Few pre-conditions per evaluator, so SDCs share them.
  private val genModel: Gen[IndexedSeq[Sdc]] = for {
    n    <- Gen.choose(1, 40)
    pres <- Gen.listOfN(8, Gen.zip(Gen.frequency(1 -> Gen.const(fixedEval), 2 -> Gen.oneOf(registry.all)),
                                   Gen.oneOf(thresholds.init),
                                   Gen.oneOf(0.3, 0.5, 0.8, 0.95, 1.0)))
    sdcs <- Gen.listOfN(n, for {
      (e, dIn, m) <- Gen.oneOf(pres)
      dOut        <- Gen.oneOf(thresholds.filter(_ > dIn))
      conf        <- Gen.choose(0.5, 0.99)
    } yield Sdc(e.id, dIn, dOut, m, conf))
  } yield sdcs.toIndexedSeq

  private val genValue: Gen[String] = Gen.frequency(
    4 -> Gen.oneOf(Vocab.months ++ Vocab.nlDomains.flatMap(_.common.take(4))),
    2 -> Gen.oneOf("12 oz", "3 oz", "item7", "3/10/2020", "a@b.com", "10.0.0.1", "febuary", "0.05%"),
    1 -> Gen.oneOf(null, "", " ", "\t", "JANUARY", " january ", "München", "東京", "😀 smile"),
  )

  // Columns drawn mostly from one domain, so that pre-conditions hold, plus
  // a few other values; values repeat within and across columns.
  private val domains: Seq[Seq[String]] = Seq(
    Vocab.months, Vocab.nlDomains.head.common.take(20), (1 to 20).map(i => s"$i oz"),
    (1 to 12).map(i => s"$i/10/2020"), (1 to 20).map(i => s"item$i"))

  private val genColumn: Gen[Seq[String]] = Gen.frequency(
    1 -> Gen.const(Nil),
    6 -> (for {
      dom   <- Gen.oneOf(domains)
      n     <- Gen.choose(1, 15)
      main  <- Gen.listOfN(n, Gen.oneOf(dom))
      noise <- Gen.choose(0, 3).flatMap(Gen.listOfN(_, genValue))
      seed  <- Gen.long
    } yield Det.shuffle(seed, main ++ noise)))

  private val genColumns: Gen[Seq[TableColumn]] = for {
    n    <- Gen.choose(0, 6)
    cols <- Gen.listOfN(n, genColumn)
  } yield cols.zipWithIndex.map { case (vs, i) => TableColumn(s"c$i", "d", vs, Nil, vs.size.toLong) }

  private def single(model: SdcModel, cols: Seq[TableColumn]): IndexedSeq[Prediction] =
    cols.flatMap(c => model.predictColumn(c.values).map { case (v, conf) => Prediction(c.colId, v, conf) }).toIndexedSeq

  test("batch predict equals per-column predictColumn, in column order") {
    var flagged = 0
    val prop = Prop.forAll(genModel, genColumns) { (sdcs, cols) =>
      val model = new SdcModel(sdcs, registry)
      val want = single(model, cols)
      flagged += want.size
      cols.forall(c => model.predictColumn(c.values) == PerValueReference.predictColumn(sdcs, registry, c.values)) &&
        Predictor.predict(spark, model, cols) == want
    }
    val result = Check.check(Check.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(Seed(5L)), prop)
    assert(result.passed, result.status)
    assert(flagged > 50, "too few flagged values to compare")
  }

  test("an empty column list and a model with no SDCs predict nothing") {
    val model = new SdcModel(IndexedSeq(Sdc(fixedEval.id, 0.25, 1.0, 0.5, 0.9)), registry)
    assert(Predictor.predict(spark, model, Nil).isEmpty)
    val cols = Seq(TableColumn("a", "d", Seq("x", null, ""), Nil, 3), TableColumn("b", "d", Nil, Nil, 0))
    val none = new SdcModel(IndexedSeq.empty, registry)
    assert(Predictor.predict(spark, none, cols).isEmpty)
    assert(cols.forall(c => none.predictColumn(c.values).isEmpty))
  }

  test("batch predict runs no Spark job") {
    val model = new SdcModel(IndexedSeq(Sdc(fixedEval.id, 0.25, 1.0, 0.5, 0.9),
      Sdc("fun:validate_date", 0.0, 0.5, 0.9, 0.95)), registry)
    val cols = (0 until 50).map(i => TableColumn(s"c$i", "d", Seq(s"$i/1/2020", "x", s"v$i"), Nil, 3))
    assert(SparkJobs.count(spark)(Predictor.predict(spark, model, cols)) == 0)
  }
}
