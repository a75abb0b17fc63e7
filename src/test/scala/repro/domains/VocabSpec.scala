package repro.domains

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.corpus.CorpusGen
import repro.dists.ValidatorsSpec.accepts
import repro.util.Det

class VocabSpec extends AnyFunSuite {

  test("all domains have unique names") {
    assert(Vocab.all.map(_.name).distinct.size == Vocab.all.size)
  }

  test("byName resolves every domain") {
    Vocab.all.foreach(d => assert(Vocab.byName(d.name) eq d))
  }

  test("paper running examples are actual vocab members") {
    assert(Vocab.month.all.contains("january"))
    assert(Vocab.city.all.contains("seattle"))
    assert(Vocab.country.all.contains("liechtenstein")) // the Fig 2 typo target
    assert(Vocab.stateCode.all.contains("fl"))
  }

  test("country common and uncommon are disjoint") {
    assert(Vocab.country.common.toSet.intersect(Vocab.country.uncommon.toSet).isEmpty)
  }

  test("50 state codes and 50 state names") {
    assert(Vocab.stateCodes.size == 50)
    assert(Vocab.stateNames.size == 50)
    assert(Vocab.stateCodes.distinct.size == 50)
  }

  test("12 months, 7 weekdays") {
    assert(Vocab.months.size == 12)
    assert(Vocab.weekdays.size == 7)
  }

  test("VocabDomain draw always returns a vocab member") {
    val d = Vocab.city
    (0 until 500).foreach { i =>
      assert(d.all.contains(d.draw(i.toLong)))
    }
  }

  test("VocabDomain draw favours common values (zipf head)") {
    val d = Vocab.country
    val draws = (0 until 4000).map(i => d.draw(i.toLong))
    val commonFrac = draws.count(d.common.contains).toDouble / draws.size
    assert(commonFrac > 0.6, s"commonFrac $commonFrac")
    // but the uncommon tail does appear — the Example 2 trap requires it
    assert(draws.exists(d.uncommon.contains))
  }

  test("fullName values are two tokens") {
    Vocab.fullName.all.take(50).foreach { n =>
      assert(n.split(" ").length == 2, n)
    }
  }

  test("synthWord is deterministic and plausible") {
    assert(Vocab.synthWord(7L) == Vocab.synthWord(7L))
    val w = Vocab.synthWord(123L)
    assert(w.length >= 2 && w.forall(_.isLetter))
  }

  test("genDate produces valid dates") {
    (0 until 300).foreach { i =>
      val d = Vocab.genDate(i.toLong)
      assert(accepts("date")(d), d)
    }
  }

  test("genIsoDate produces valid iso dates") {
    (0 until 100).foreach(i => assert(accepts("date")(Vocab.genIsoDate(i.toLong))))
  }

  test("genTime produces valid times") {
    (0 until 100).foreach(i => assert(accepts("time")(Vocab.genTime(i.toLong))))
  }

  test("genUrl produces valid urls") {
    (0 until 100).foreach(i => assert(accepts("url")(Vocab.genUrl(i.toLong)), Vocab.genUrl(i.toLong)))
  }

  test("genEmail produces valid emails") {
    (0 until 100).foreach(i => assert(accepts("email")(Vocab.genEmail(i.toLong))))
  }

  test("genIp produces valid ips") {
    (0 until 100).foreach(i => assert(accepts("ip")(Vocab.genIp(i.toLong)), Vocab.genIp(i.toLong)))
  }

  test("genCreditCard passes Luhn validation") {
    (0 until 200).foreach { i =>
      val cc = Vocab.genCreditCard(i.toLong)
      assert(cc.length == 16 && cc.forall(_.isDigit), cc)
      assert(accepts("credit_card")(cc), cc)
    }
  }

  test("genFiscalYear matches the fyNN shape of Fig 2") {
    (0 until 50).foreach { i =>
      assert(Vocab.genFiscalYear(i.toLong).matches("fy\\d{2}"))
    }
  }

  test("genUnit matches the '12 oz' / '9.8 oz' shapes of Fig 2") {
    val units = (0 until 200).map(i => Vocab.genUnit(i.toLong))
    units.foreach(u => assert(u.matches("\\d+(\\.\\d+)? [a-z]+"), u))
    assert(units.exists(_.contains(".")), "expected some decimal quantities")
    assert(units.count(_.contains(".")) < units.size / 4)
  }

  test("genAlphaNumId matches letters-then-digits") {
    (0 until 50).foreach(i => assert(Vocab.genAlphaNumId(i.toLong).matches("[a-z]+\\d+")))
  }

  test("genAgeRange and genPayRange shapes") {
    (0 until 50).foreach { i =>
      assert(Vocab.genAgeRange(i.toLong).matches("\\d+-\\d+"))
      assert(Vocab.genPayRange(i.toLong).matches("\\$\\d+-\\d+k"))
    }
  }

  test("genGene produces mixed syntactic styles (the Fig 3 trap)") {
    val genes = (0 until 200).map(i => Vocab.genGene(i.toLong))
    val patterns = genes.map(repro.dists.Patterns.generalize).distinct
    assert(patterns.size >= 3, s"gene column should not have one dominant pattern: $patterns")
  }

  test("zip and phone shapes") {
    (0 until 50).foreach { i =>
      assert(Vocab.genZip(i.toLong).matches("\\d{5}"))
      assert(accepts("phone")(Vocab.genPhone(i.toLong)), Vocab.genPhone(i.toLong))
    }
  }

  test("metadata strings are nonempty and lowercase") {
    Vocab.metadataStrings.foreach { m =>
      assert(m.nonEmpty && m == m.toLowerCase)
    }
  }

  test("machine domains are flagged as machine, NL as not") {
    assert(Vocab.date.isMachine)
    assert(!Vocab.city.isMachine)
    assert(Vocab.nlDomains.forall(!_.isMachine))
    assert(Vocab.all.collect { case g: GenDomain => g }.forall(_.isMachine))
  }

  test("zeroPad equals %0<width>d for every width and value range") {
    (1 to 10).foreach { w =>
      (0 until 100000).foreach(n => assert(Vocab.zeroPad(n, w) == (s"%0${w}d").format(n), s"$n $w"))
    }
    val prop = Prop.forAll(Gen.oneOf(Gen.choose(Int.MinValue, Int.MaxValue), Gen.choose(-99999, 99999),
        Gen.choose(0, 10000000), Gen.oneOf(0, -1, Int.MinValue, Int.MaxValue)), Gen.choose(1, 12)) { (n, w) =>
      Vocab.zeroPad(n, w) == (s"%0${w}d").format(n)
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(5000).withInitialSeed(Seed(8L)), prop)
    assert(result.passed, result.status)
  }

  test("formatted generators equal their java.util.Formatter expressions") {
    def isoDate(seed: Long) = {
      val m = 1 + Det.nextInt(Det.combine(seed, 1), 12)
      val d = 1 + Det.nextInt(Det.combine(seed, 2), 28)
      val y = 1990 + Det.nextInt(Det.combine(seed, 3), 35)
      f"$y%04d-$m%02d-$d%02d"
    }
    def time(seed: Long) = {
      val h = Det.nextInt(Det.combine(seed, 1), 24)
      val m = Det.nextInt(Det.combine(seed, 2), 60)
      val s = Det.nextInt(Det.combine(seed, 3), 60)
      f"$h%02d:$m%02d:$s%02d"
    }
    def fiscalYear(seed: Long) = f"fy${10 + Det.nextInt(seed, 20)}%02d"
    def alphaNumId(seed: Long) = {
      val p = Det.pick(Det.combine(seed, 1), IndexedSeq("tt", "b", "num", "id", "po", "inv"))
      val w = 5 + Det.nextInt(Det.combine(seed, 2), 4)
      val n = Det.nextInt(Det.combine(seed, 3), 10000000)
      p + (s"%0${w}d").format(n)
    }
    def zip(seed: Long) = f"${Det.nextInt(seed, 100000)}%05d"
    def phone(seed: Long) = {
      val a = 200 + Det.nextInt(Det.combine(seed, 1), 800)
      val b = 100 + Det.nextInt(Det.combine(seed, 2), 900)
      val c = Det.nextInt(Det.combine(seed, 3), 10000)
      f"$a-$b-$c%04d"
    }
    (0 until 20000).map(i => Det.mix64(i.toLong)).foreach { s =>
      assert(Vocab.genIsoDate(s) == isoDate(s))
      assert(Vocab.genTime(s) == time(s))
      assert(Vocab.genFiscalYear(s) == fiscalYear(s))
      assert(Vocab.genAlphaNumId(s) == alphaNumId(s))
      assert(Vocab.genZip(s) == zip(s))
      assert(Vocab.genPhone(s) == phone(s))
    }
  }

  test("caseJitter equals the split/mkString title-casing on spaced and unicode strings") {
    def oldCaseJitter(v: String, seed: Long): String = {
      val u = Det.uniform(Det.combine(seed, 0xcafeL))
      if (u < 0.22) v.split(' ').map(w => if (w.isEmpty) w else s"${w.head.toUpper}${w.tail}").mkString(" ")
      else if (u < 0.30) v.toUpperCase
      else v
    }
    val piece = Gen.oneOf("a", "seattle", "new", "york", "\u00e9t\u00e9", "\u00df", "\u01c6x", "\u4e2d",
      "\uD835\uDC00b", "\uD83D\uDE00", "1", "-", "\u0131", " ", "  ")
    val str = Gen.choose(0, 8).flatMap(Gen.listOfN(_, piece)).map(_.mkString)
    var titled = 0
    val prop = Prop.forAll(str, Gen.choose(Long.MinValue, Long.MaxValue)) { (v, seed) =>
      if (Det.uniform(Det.combine(seed, 0xcafeL)) < 0.22) titled += 1
      CorpusGen.caseJitter(v, seed) == oldCaseJitter(v, seed)
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(5000).withInitialSeed(Seed(9L)), prop)
    assert(result.passed, result.status)
    assert(titled > 500, s"title-case branch taken only $titled times")
    Seq("", " ", "   ", " a", "a ", "a  b  ", "  new  york ").foreach { v =>
      (0 until 200).foreach(i => assert(CorpusGen.caseJitter(v, i.toLong) == oldCaseJitter(v, i.toLong), s"'$v'"))
    }
  }
}
