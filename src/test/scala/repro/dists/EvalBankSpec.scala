package repro.dists

import java.lang.Double.doubleToLongBits

import org.scalacheck.{Arbitrary, Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.domains.Vocab
import repro.util.Det

class EvalBankSpec extends AnyFunSuite {

  private val cta: IndexedSeq[DomainEval] =
    CtaClassifier.sherlockBank(Vocab.nlDomains).take(4) ++ CtaClassifier.doduoBank(Vocab.nlDomains).take(4)
  private val glove: IndexedSeq[DomainEval] = Seq("january", "seattle", "red", "germany")
    .map(new EmbeddingCentroidEval(EvalRegistry.gloveEmbedding, _)).toIndexedSeq
  private val sbert: IndexedSeq[DomainEval] = Seq("march", "phoenix", "blue", "omayra")
    .map(new EmbeddingCentroidEval(EvalRegistry.sbertEmbedding, _)).toIndexedSeq
  // "[a-zA-Z]+" and "[a-zA-Z]+ \\d+" are what 'İ' and "Ayİ 7" generalize to;
  // their lowercased forms, which end in a combining dot, generalize apart.
  private val patterns: IndexedSeq[DomainEval] =
    IndexedSeq("\\d+ [a-zA-Z]+", "[a-zA-Z]+\\d+", "\\d+/\\d+/\\d+", "[a-zA-Z]+", "[a-zA-Z]+ \\d+").map(new PatternEval(_))
  private val allEvals: IndexedSeq[DomainEval] = cta ++ glove ++ sbert ++ patterns ++ FunctionEval.allEvals

  // Vocabulary, machine-looking, null, empty, whitespace-only, mixed-case,
  // padded, unicode and arbitrary strings, and the edges of normalization:
  // a vertical tab (trimmed, and `\s`), no-break and em spaces (neither),
  // 'İ' (two chars once lowercased), and '^'/'$' (trigram boundary chars).
  private val genValue: Gen[String] = Gen.frequency(
    1 -> Gen.oneOf("\u000B", "\u000Bjanuary\u000B", "a\u000Bb", "\u00A0seattle", "red\u00A0blue", "red\u2003blue",
      "\u2003\u2003", "İ", "İstanbul", "Ayİ 7", "^", "$", "^$", "^January$", "a^b$c", "$12", "SeAtTlE", "GerMANY",
      "OMAYRA", "12:30 PM", "HTTP://X.ORG", "A@B.COM"),
    4 -> Gen.oneOf(Vocab.months ++ Vocab.nlDomains.flatMap(_.common.take(5))),
    2 -> Gen.oneOf("12 oz", "3/10/2020", "item7", "a@b.com", "10.0.0.1", "https://x.org", "4111111111111111"),
    1 -> Gen.oneOf(null, "", " ", "\t \n", "JaNuArY", "  Seattle ", "SAN FRANCISCO", "febuary"),
    1 -> Gen.oneOf("münchen", "東京", "señor", "😀 smile", "ΑΘΗΝΑ", "ǅemal"),
    1 -> Arbitrary.arbitrary[String],
  )

  // Columns repeat some of their values, as real columns do.
  private val genColumn: Gen[Array[String]] = for {
    vs <- Gen.listOf(genValue)
    k  <- Gen.choose(0, vs.size)
  } yield (vs ++ vs.take(k)).toArray

  // Any subset of the evaluators in any order, so the families interleave.
  private val genEvals: Gen[IndexedSeq[DomainEval]] = for {
    subset <- Gen.someOf(allEvals)
    seed   <- Arbitrary.arbitrary[Long]
  } yield Det.shuffle(seed, subset.toSeq)

  private def matchesDistance(evals: IndexedSeq[DomainEval], values: Array[String]): Boolean = {
    val d = new EvalBank(evals).distances(values)
    d.length == evals.size && evals.indices.forall { i =>
      d(i).length == values.length && values.indices.forall { j =>
        doubleToLongBits(d(i)(j)) == doubleToLongBits(evals(i).distance(values(j)))
      }
    }
  }

  private def check(prop: Prop, cases: Int): Unit = {
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(cases).withInitialSeed(Seed(11L)), prop)
    assert(result.passed, result.status)
  }

  test("distances(vs)(i)(j) is bit-equal to evals(i).distance(vs(j)) for all four families") {
    check(Prop.forAll(genEvals, genColumn)(matchesDistance), 200)
  }

  test("distancesInto writes exactly the masked rows over [from, until), bit-equal to distance") {
    val sentinel = -7.25 // no distance is negative
    val gen = for {
      evals  <- genEvals
      values <- genColumn
      mask   <- Gen.listOfN(evals.size, Arbitrary.arbitrary[Boolean])
      from   <- Gen.choose(0, values.length)
      until  <- Gen.choose(from, values.length)
    } yield (evals, values, mask.toArray, from, until)
    check(Prop.forAll(gen) { case (evals, values, rows, from, until) =>
      val out = Array.fill(evals.size)(Array.fill(values.length)(sentinel))
      new EvalBank(evals).distancesInto(values, from, until, rows, out)
      evals.indices.forall { i =>
        values.indices.forall { j =>
          val want = if (rows(i) && j >= from && j < until) evals(i).distance(values(j)) else sentinel
          doubleToLongBits(out(i)(j)) == doubleToLongBits(want)
        }
      }
    }, 200)
  }

  test("distancesInto is bit-equal to distance when only pattern rows are live") {
    val gen = for {
      evals  <- genEvals
      values <- genColumn
    } yield (evals, values)
    check(Prop.forAll(gen) { case (evals, values) =>
      val rows = evals.map(_.isInstanceOf[PatternEval]).toArray
      val out = Array.fill(evals.size)(Array.fill(values.length)(-7.25))
      new EvalBank(evals).distancesInto(values, 0, values.length, rows, out)
      evals.indices.forall { i =>
        values.indices.forall { j =>
          val want = if (rows(i)) evals(i).distance(values(j)) else -7.25
          doubleToLongBits(out(i)(j)) == doubleToLongBits(want)
        }
      }
    }, 100)
  }

  test("a bank with one embedding model matches per-evaluator distance") {
    check(Prop.forAll(genColumn)(vs => matchesDistance(glove, vs)), 100)
  }

  test("an empty column gives one empty row per evaluator") {
    val d = new EvalBank(allEvals).distances(Array.empty)
    assert(d.length == allEvals.size && d.forall(_.isEmpty))
  }

  test("an empty evaluator list gives no rows") {
    assert(new EvalBank(IndexedSeq.empty).distances(Array("january", null, "")).isEmpty)
  }
}
