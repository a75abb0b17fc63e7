package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.corpus.TableColumn
import repro.dists.{CtaClassifier, EmbeddingCentroidEval, EvalRegistry, FunctionEval, PatternEval}
import repro.domains.Vocab
import repro.util.Det

/** [[SdcModel]] on its plan layout gives what the pre-condition-group layout
  * it replaced gives ([[GroupedSdcModel]]): the same `predictColumn` maps in
  * the same order, the same batch predictions, the same covering SDCs in the
  * same order, and the same pre-condition count. Its single-column pass,
  * which stops scoring an evaluator once none of its pre-conditions can
  * hold, gives what [[PerValueReference]] gives in any value order.
  */
class SdcModelEquivalenceSpec extends AnyFunSuite {

  private val fixedEval = new HashedFixedEval

  // Listed out of id order: function and pattern evaluators before
  // embedding and CTA ones, each family reversed.
  private val registry = new EvalRegistry(
    (FunctionEval.allEvals :+ fixedEval).reverse ++
      IndexedSeq(new PatternEval("[a-zA-Z]+\\d+"), new PatternEval("\\d+ [a-zA-Z]+")) ++
      Seq("seattle", "january").map(new EmbeddingCentroidEval(EvalRegistry.gloveEmbedding, _)) ++
      Seq("red", "march").map(new EmbeddingCentroidEval(EvalRegistry.sbertEmbedding, _)) ++
      CtaClassifier.doduoBank(Vocab.nlDomains).take(2).reverse ++
      CtaClassifier.sherlockBank(Vocab.nlDomains).take(3).reverse)

  // Grid thresholds of all four families and off-grid ones.
  private val thresholds =
    Seq(0.0, 0.05, 0.1, 0.15, 0.25, 0.3, 0.37, 0.45, 0.5, 0.62, 0.8, 0.9, 1.0, 1.3, 2.0, 2.2, 3.7, 4.0, 5.0, 6.0)

  // SDCs drawn from a few (evaluator, d_in) pairs and few m, so they share
  // (d_in, m) and differ in m alone, with confidences that often tie.
  private val genModel: Gen[IndexedSeq[Sdc]] = for {
    n    <- Gen.choose(0, 40)
    pres <- Gen.listOfN(5, Gen.zip(Gen.frequency(1 -> Gen.const(fixedEval), 3 -> Gen.oneOf(registry.all)),
                                   Gen.oneOf(thresholds.init)))
    sdcs <- Gen.listOfN(n, for {
      (e, dIn) <- Gen.oneOf(pres)
      m        <- Gen.oneOf(0.3, 0.5, 0.8, 0.95, 1.0)
      dOut     <- Gen.oneOf(thresholds.filter(_ > dIn))
      conf     <- Gen.frequency(2 -> Gen.oneOf(0.7, 0.85, 0.9), 1 -> Gen.choose(0.5, 0.99))
    } yield Sdc(e.id, dIn, dOut, m, conf))
  } yield sdcs.toIndexedSeq

  private val genValue: Gen[String] = Gen.frequency(
    4 -> Gen.oneOf(Vocab.months ++ Vocab.nlDomains.flatMap(_.common.take(4))),
    2 -> Gen.oneOf("12 oz", "3 oz", "item7", "3/10/2020", "a@b.com", "10.0.0.1", "febuary", "0.05%"),
    2 -> Gen.oneOf(null, "", " ", "\t", "JANUARY", " january ", "München", "東京", "😀 smile", " "),
  )

  // Columns drawn mostly from one domain, so that pre-conditions hold, plus
  // a few other values; values repeat within and across columns.
  private val domains: Seq[Seq[String]] = Seq(
    Vocab.months, Vocab.nlDomains.head.common.take(20), (1 to 20).map(i => s"$i oz"),
    (1 to 12).map(i => s"$i/10/2020"), (1 to 20).map(i => s"item$i"))

  private val genColumn: Gen[Seq[String]] = Gen.frequency(
    1 -> Gen.const(Nil),
    1 -> Gen.choose(1, 4).flatMap(Gen.listOfN(_, genValue)),
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

  test("predictColumn, batch predict, explainColumn and nPreConditions equal the grouped layout") {
    var flagged = 0
    var covering = 0
    val prop = Prop.forAll(genModel, genColumns) { (sdcs, cols) =>
      val model = new SdcModel(sdcs, registry)
      val ref = new GroupedSdcModel(sdcs, registry)
      model.nPreConditions == ref.nPreConditions &&
      cols.forall { c =>
        val want = ref.predictColumn(c.values).toSeq
        val explained = model.explainColumn(c.values)
        flagged += want.size
        covering += explained.covering.size
        model.predictColumn(c.values).toSeq == want &&
          explained.flagged.toSeq == want &&
          explained.covering == ref.coveringSdcs(c.values)
      } &&
      model.predictions(cols) == GroupedSdcModel.predict(ref, cols)
    }
    val result = Check.check(Check.Parameters.default.withMinSuccessfulTests(100).withInitialSeed(Seed(12L)), prop)
    assert(result.passed, result.status)
    assert(flagged > 100 && covering > 100, s"too little to compare: $flagged flagged, $covering covering")
  }

  test("predictColumn and explainColumn equal the per-value reference in any value order") {
    val ref = PerValueReference
    val reg = ref.mixedRegistry
    val cands = CandidateGen.enumerate(reg).flatMap(_.candidates)
    val genSdcs: Gen[IndexedSeq[Sdc]] = for {
      n      <- Gen.choose(1, 60)
      picked <- Gen.pick(n, cands)
    } yield picked.map(c => c.toSdc(0.5 + (c.idx % 50) / 100.0)).toIndexedSeq
    val genCol: Gen[Seq[String]] = Gen.frequency(
      1 -> Gen.const(Nil),
      1 -> genValue.map(Seq(_)),
      6 -> (for {
        base  <- Gen.oneOf(ref.corpus.map(_.values))
        noise <- Gen.choose(0, 3).flatMap(Gen.listOfN(_, genValue))
      } yield base ++ noise))
    var covering = 0
    val prop = Prop.forAll(genSdcs, genCol, Gen.long) { (sdcs, vs, seed) =>
      val model = new SdcModel(sdcs, reg)
      Seq(vs, Det.shuffle(seed, vs), vs.reverse).forall { col =>
        val want = ref.predictColumn(sdcs, reg, col)
        val explained = model.explainColumn(col)
        covering += explained.covering.size
        model.predictColumn(col) == want && explained.flagged == want &&
          explained.covering == ref.coveringSdcs(sdcs, reg, col)
      }
    }
    val result = Check.check(Check.Parameters.default.withMinSuccessfulTests(150).withInitialSeed(Seed(13L)), prop)
    assert(result.passed, result.status)
    assert(covering > 100, s"too little to compare: $covering covering")
  }
}
