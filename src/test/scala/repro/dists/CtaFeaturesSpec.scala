package repro.dists

import java.lang.Double.doubleToLongBits

import org.scalacheck.{Arbitrary, Gen}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.domains.{Vocab, VocabDomain}
import repro.util.Det

/** [[CtaClassifier.score]] as it was written before the classifiers shared
  * per-value features: every call normalizes the value, hashes it once per
  * use and builds its trigrams. The shared-feature path must equal it bit
  * for bit.
  */
object PerCallCta {

  def score(c: CtaClassifier, raw: String): Double = {
    val v = DomainEval.normalize(raw)
    if (v.isEmpty) return 0.0
    val base =
      if (c.trainSet.contains(v)) 0.85 + 0.13 * Det.uniform(Det.combine(c.jitterSeed, Det.hashString(v)))
      else if (c.fullSet.contains(v)) 0.45 + 0.30 * Det.uniform(Det.combine(c.jitterSeed, 0x2, Det.hashString(v)))
      else 0.5 * trigramScore(c, v)
    val noise = 0.16 * (Det.uniform(Det.combine(c.jitterSeed, 0x3, Det.hashString(v))) - 0.5)
    math.min(1.0, math.max(0.0, base + noise))
  }

  private def trigramScore(c: CtaClassifier, v: String): Double = {
    val grams = CtaClassifier.trigrams(v)
    if (grams.isEmpty) 0.0
    else {
      var s = 0.0
      grams.foreach(g => s += c.triLogOdds.getOrElse(g, CtaClassifier.UnseenLogOdds))
      val avg = s / grams.size
      1.0 / (1.0 + math.exp(-avg))
    }
  }
}

class CtaFeaturesSpec extends AnyFunSuite {

  private val classifiers: IndexedSeq[CtaClassifier] =
    CtaClassifier.sherlockBank(Vocab.nlDomains) ++ CtaClassifier.doduoBank(Vocab.nlDomains)

  /** Flips the case of every other letter, and pads the value. */
  private def mixCase(v: String, pad: Int): String =
    " " * pad + v.zipWithIndex.map { case (ch, i) => if (i % 2 == 0) ch.toUpper else ch }.mkString + " " * (pad % 2)

  private val fixed: Seq[String] = {
    val c = classifiers.head
    Seq(null, "", " ", "\t", " \n\t ", "a", "A", "ab", " x ", "xy", "😀", "😀a", "𝔘𝔫𝔦", "東京", "a\uD83D",
      "germany", "Germany", " GERMANY ", "liechstein", "12/3/2020", "fl") ++
      c.trainSet.toSeq.sorted.take(20).zipWithIndex.map { case (v, i) => mixCase(v, i % 3) } ++
      (c.fullSet -- c.trainSet).toSeq.sorted.take(20).zipWithIndex.map { case (v, i) => mixCase(v, i % 3) }
  }

  private val genValue: Gen[String] = Gen.frequency(
    3 -> Gen.oneOf(classifiers.flatMap(_.fullSet.toSeq.sorted.take(40))).flatMap(v => Gen.choose(0, 2).map(mixCase(v, _))),
    1 -> Gen.oneOf(Vocab.months ++ Seq("febuary", "seattel", "12 oz", "item7", "a@b.com")),
    1 -> Gen.choose(1, 2).flatMap(n => Gen.listOfN(n, Gen.alphaNumChar).map(_.mkString)),
    1 -> Gen.oneOf("", " ", "\t \n", "😀 smile", "ǅemal", "ΑΘΗΝΑ", "münchen", "𝔘"),
    2 -> Arbitrary.arbitrary[String],
  )

  private lazy val random: Seq[String] =
    Gen.listOfN(5000, genValue).pureApply(Gen.Parameters.default.withSize(20), Seed(29L))

  private def sameScores(values: Seq[String]): Unit =
    for (c <- classifiers; v <- values) {
      val want = PerCallCta.score(c, v)
      assert(doubleToLongBits(c.score(v)) == doubleToLongBits(want), s"${c.id} score on '$v'")
      assert(doubleToLongBits(c.distance(v)) == doubleToLongBits(1.0 - want), s"${c.id} distance on '$v'")
    }

  test("shared-feature scores equal the per-call scores on fixed edge cases") {
    assert(fixed.count(v => classifiers.head.trainSet.contains(DomainEval.normalize(v))) >= 20)
    sameScores(fixed)
  }

  test("shared-feature scores equal the per-call scores on 5,000 random strings") {
    assert(random.size == 5000)
    assert(random.count(v => classifiers.exists(_.fullSet.contains(DomainEval.normalize(v)))) > 1000)
    sameScores(random)
  }

  test("bank scores follow each classifier's own vocabulary membership") {
    // In one classifier's training vocabulary and only in another's full one.
    val split = classifiers.iterator.flatMap(_.trainSet.toSeq.sorted)
      .find(v => classifiers.exists(c => c.fullSet.contains(v) && !c.trainSet.contains(v))).get
    val unknown = "zq-17 xw"
    assert(!classifiers.exists(c => c.fullSet.contains(unknown) || c.trainSet.contains(unknown)))
    val values = Array(split, unknown)
    val scores = Array.fill(classifiers.size)(new Array[Double](values.length))
    new CtaClassifier.Bank(classifiers, classifiers.indices.toArray)
      .scoresInto(values.map(DomainEval.normalize), 0, Array.fill(classifiers.size)(true), scores)
    assert(classifiers.size == 24)
    for (k <- classifiers.indices; j <- values.indices)
      assert(doubleToLongBits(scores(k)(j)) == doubleToLongBits(PerCallCta.score(classifiers(k), values(j))),
        s"${classifiers(k).id} on '${values(j)}'")
  }

  test("packed trigrams score like the per-call scores on boundary chars, surrogates, one-char values and high chars") {
    // Classifiers trained on such words, so that their trigrams are in the
    // packed table: '^' and '$' inside a value, surrogate pairs, unpaired
    // surrogates, and units >= U+8000, whose top bit is set.
    val odd = IndexedSeq("a^b", "^^", "x$y$", "$^", "$", "q", "ü", "東京", "鿿a", "\u8000\u8001", "\uFFFF\uFFFE",
      "😀x", "a\uD83D", "\uDE00b", "𝔘𝔫𝔦", "ab\uD800")
    val dom = VocabDomain("odd", odd, IndexedSeq("^x$", "東"))
    val own = IndexedSeq(CtaClassifier("sherlock", dom, 0.5), CtaClassifier("doduo", dom, 1.0))
    assert(own.forall(_.triLogOdds.keys.exists(_.exists(_ >= '\u8000'))))
    val values = odd ++ Seq("^", "$$", "^$", "a", "Z", "\u00e9", "東", "\uD83D", "\uDE00", "😀", "^a^", "京東", "X$", "$Y",
      "\u8000", "\uFFFF", " ^A$ ", "𝔘", "鿿", "\u8001\u8000", "A^B", "\uD83D\uDE00x")
    val all = own ++ classifiers
    sameScores(values)
    for (c <- own; v <- values)
      assert(doubleToLongBits(c.score(v)) == doubleToLongBits(PerCallCta.score(c, v)), s"${c.id} score on '$v'")
    val scores = Array.fill(all.size)(new Array[Double](values.length))
    new CtaClassifier.Bank(all, all.indices.toArray)
      .scoresInto(values.map(DomainEval.normalize).toArray, 0, Array.fill(all.size)(true), scores)
    for (k <- all.indices; j <- values.indices)
      assert(doubleToLongBits(scores(k)(j)) == doubleToLongBits(PerCallCta.score(all(k), values(j))),
        s"${all(k).id} on '${values(j)}'")
  }

  test("bank rows of CTA classifiers mixed in any order among the other families equal the per-call scores") {
    val others: IndexedSeq[DomainEval] =
      IndexedSeq("january", "seattle").map(new EmbeddingCentroidEval(EvalRegistry.gloveEmbedding, _)) ++
        Seq("march", "red").map(new EmbeddingCentroidEval(EvalRegistry.sbertEmbedding, _)) ++
        Seq(new PatternEval("\\d+ [a-zA-Z]+")) ++ FunctionEval.allEvals.take(3)
    val values = (fixed ++ random.take(500)).toArray
    (0 until 8).foreach { seed =>
      val evals = Det.shuffle(seed.toLong, classifiers.take(6 + seed) ++ others)
      val d = new EvalBank(evals).distances(values)
      evals.indices.foreach { i =>
        values.indices.foreach { j =>
          val want = evals(i) match {
            case c: CtaClassifier => 1.0 - PerCallCta.score(c, values(j))
            case e                => e.distance(values(j))
          }
          assert(doubleToLongBits(d(i)(j)) == doubleToLongBits(want), s"${evals(i).id} on '${values(j)}'")
        }
      }
    }
  }
}
