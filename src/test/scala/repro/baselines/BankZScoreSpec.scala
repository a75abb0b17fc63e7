package repro.baselines

import java.util.Locale

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.corpus.TableColumn
import repro.dists.{DomainEval, EvalRegistry}
import repro.domains.{TypoGen, Vocab}
import repro.experiments.Baselines

/** `BankZScore.detect` as it was written before it read an `EvalBank`: each
  * evaluator's `distance` over the whole column, the best type the one with
  * the least sum. The detector must equal it on every column.
  */
final class PerEvaluatorBankZScore(val name: String, bank: IndexedSeq[DomainEval]) extends ErrorDetector {

  private def detectWith(values: Seq[String], dists: Array[Double]): Seq[(String, Double)] = {
    val z = ZScoreBaselines.zScores(dists)
    if (z.isEmpty) Seq.empty
    else values.indices.collect { case i if z(i) > 0 => (values(i), z(i)) }
  }

  override def detect(col: TableColumn): Seq[(String, Double)] = {
    if (col.values.size < 3 || bank.isEmpty) return Seq.empty
    val arr = col.values.toArray
    val best = bank.minBy(e => arr.iterator.map(e.distance).sum)
    detectWith(col.values, arr.map(best.distance))
  }
}

class BankZScoreSpec extends AnyFunSuite {

  /** Table 4's four bank baselines, each with its bank. */
  private val banks: Seq[(String, IndexedSeq[DomainEval])] = Seq(
    "Sherlock"   -> EvalRegistry.sherlockBank,
    "Doduo"      -> EvalRegistry.doduoBank,
    "DataPrep"   -> ZScoreBaselines.validatorBank("date", "time", "number", "phone"),
    "Validators" -> ZScoreBaselines.validatorBank("url", "email", "ip", "credit_card"))

  /** One value of domain d: drawn as is, with a typo, in another case, empty,
    * or drawn from another domain.
    */
  private def genValue(d: repro.domains.Domain): Gen[String] = Gen.frequency(
    6 -> Gen.long.map(d.draw),
    2 -> Gen.long.map { s => val v = d.draw(s); if (v.isEmpty) v else TypoGen.typo(v, s) },
    1 -> Gen.long.map(s => d.draw(s).toUpperCase(Locale.ROOT)),
    1 -> Gen.long.map(s => d.draw(s).capitalize),
    1 -> Gen.const(""),
    1 -> Gen.zip(Gen.oneOf(Vocab.all), Gen.long).map { case (o, s) => o.draw(s) },
  )

  private val genColumn: Gen[TableColumn] = for {
    d  <- Gen.oneOf(Vocab.all)
    n  <- Gen.choose(0, 40)
    vs <- Gen.listOfN(n, genValue(d))
  } yield TableColumn(s"gen-${d.name}", d.name, vs, Nil, n.toLong)

  private def bits(found: Seq[(String, Double)]): Seq[(String, Long)] =
    found.map { case (v, z) => (v, java.lang.Double.doubleToLongBits(z)) }

  test("each bank baseline flags what the per-evaluator reference flags, with the same score bits") {
    banks.foreach { case (name, bank) =>
      val detector = Baselines(name)
      val reference = new PerEvaluatorBankZScore(name, bank)
      // The generated columns are not all degenerate: the reference flags some values.
      val sample = Gen.listOfN(100, genColumn).pureApply(Gen.Parameters.default, Seed(29L))
      assert(sample.exists(c => reference.detect(c).nonEmpty), name)
      val prop = Prop.forAll(genColumn) { col =>
        bits(detector.detect(col)) == bits(reference.detect(col))
      }
      val result = Check.check(
        Check.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(29L)), prop)
      assert(result.passed, s"$name: ${result.status}")
    }
  }
}
