package repro.dists

import org.scalacheck.{Arbitrary, Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

/** The validators as they were written before their patterns were
  * compiled once: every call compiles its pattern. The validators must equal
  * them on every input.
  */
object PerCallValidators {

  def validateDate(raw: String): Boolean = {
    val v = DomainEval.normalize(raw)
    val slash = "^(\\d{1,2})/(\\d{1,2})/(\\d{2}|\\d{4})$".r
    val iso   = "^(\\d{4})-(\\d{1,2})-(\\d{1,2})$".r
    def ok(y: Int, m: Int, d: Int): Boolean = {
      if (m < 1 || m > 12 || d < 1) return false
      val leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
      val days = Seq(31, if (leap) 29 else 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
      d <= days(m - 1)
    }
    v match {
      case slash(m, d, y) =>
        val year = if (y.length == 2) 1900 + y.toInt else y.toInt
        ok(year, m.toInt, d.toInt)
      case iso(y, m, d) => ok(y.toInt, m.toInt, d.toInt)
      case _            => false
    }
  }

  def validateTime(raw: String): Boolean = {
    val v = DomainEval.normalize(raw)
    val hms = "^(\\d{1,2}):(\\d{2})(?::(\\d{2}))?$".r
    v match {
      case hms(h, m, s) => h.toInt < 24 && m.toInt < 60 && (s == null || s.toInt < 60)
      case _            => false
    }
  }

  def validateUrl(raw: String): Boolean =
    DomainEval.normalize(raw).matches("^https?://[a-z0-9][a-z0-9.-]*\\.[a-z]{2,}(?::\\d+)?(?:/[^\\s]*)?$")

  def validateEmail(raw: String): Boolean =
    DomainEval.normalize(raw).matches("^[a-z0-9][a-z0-9._%+-]*@[a-z0-9][a-z0-9.-]*\\.[a-z]{2,}$")

  def validateIp(raw: String): Boolean = {
    val v = DomainEval.normalize(raw)
    val parts = v.split("\\.", -1)
    parts.length == 4 && parts.forall { p =>
      p.nonEmpty && p.length <= 3 && p.matches("[0-9]+") && p.toInt <= 255 &&
        !(p.length > 1 && p.startsWith("0"))
    }
  }

  def validateCreditCard(raw: String): Boolean = {
    val digits = DomainEval.normalize(raw).replaceAll("[ -]", "")
    if (digits.length < 13 || digits.length > 19 || !digits.matches("[0-9]+")) return false
    var sum = 0
    var double = false
    var i = digits.length - 1
    while (i >= 0) {
      var d = digits.charAt(i) - '0'
      if (double) { d *= 2; if (d > 9) d -= 9 }
      sum += d
      double = !double
      i -= 1
    }
    sum % 10 == 0
  }

  def validateNumber(raw: String): Boolean = {
    val v = DomainEval.normalize(raw).replace(",", "")
    v.nonEmpty && v.matches("^[+-]?(\\d+(\\.\\d*)?|\\.\\d+)([eE][+-]?\\d+)?$")
  }

  def validatePhone(raw: String): Boolean =
    DomainEval.normalize(raw).matches("^(\\+?1[ .-]?)?(\\(\\d{3}\\)|\\d{3})[ .-]?\\d{3}[ .-]?\\d{4}$")

  val byName: Map[String, String => Boolean] = Map(
    "validate_date"        -> validateDate _,
    "validate_time"        -> validateTime _,
    "validate_url"         -> validateUrl _,
    "validate_email"       -> validateEmail _,
    "validate_ip"          -> validateIp _,
    "validate_credit_card" -> validateCreditCard _,
    "validate_number"      -> validateNumber _,
    "validate_phone"       -> validatePhone _,
  )
}

class ValidatorsEquivalenceSpec extends AnyFunSuite {

  private def digitsWithSeparators(n: Int): Gen[String] = for {
    ds   <- Gen.listOfN(n, Gen.numChar)
    seps <- Gen.listOfN(n, Gen.frequency(6 -> "", 1 -> " ", 1 -> "-", 1 -> "x"))
  } yield ds.zip(seps).map { case (d, s) => s"$d$s" }.mkString

  private val genDate: Gen[String] = for {
    y   <- Gen.oneOf(Gen.choose(0, 99), Gen.oneOf(1900, 2000, 2020, 2021, 2100, 2400, 9999))
    m   <- Gen.choose(0, 13)
    d   <- Gen.oneOf(0, 1, 28, 29, 30, 31, 32)
    fmt <- Gen.oneOf(s"$m/$d/$y", f"$y%04d-$m%02d-$d%02d", f"$m%02d/$d%02d/$y%02d", s"$y-$m-$d", s" $m/$d/$y ")
  } yield fmt

  private val genValue: Gen[String] = Gen.frequency(
    2 -> Arbitrary.arbitrary[String],
    2 -> Gen.asciiPrintableStr,
    3 -> genDate,
    2 -> Gen.zip(Gen.choose(0, 25), Gen.choose(0, 61), Gen.option(Gen.choose(0, 61))).map {
      case (h, m, s) => f"$h:$m%02d" + s.fold("")(x => f":$x%02d")
    },
    3 -> Gen.choose(11, 21).flatMap(digitsWithSeparators),
    2 -> Gen.oneOf(null, "", " ", "\t\n", "NaN", "1,234.5", "-.5e+3", "+1 (334) 793-0000", "334.793.0000",
      "https://Example.ORG:8080/a b", "http://x.co/", "10.0.0.255", "1.2.3.04", "A.B@Example.org", "a@b", "2/29/2000", "2/29/1900",
      "12/31/99", "4532 0151 1283 0366", "4532-0151-1283-0366", "١٢٣", "𝟙𝟚/𝟛/𝟚𝟘𝟚𝟘", "😀@x.com", "ǅemal"),
  )

  // Strings at the edges of the checks that reject before a matcher runs:
  // a leading sign, point or parenthesis, digits that are Char.isDigit but
  // not `\d` (full-width, Arabic-Indic), commas, an "http" prefix, and '@'
  // at position 0.
  private val genEdge: Gen[String] = for {
    lead  <- Gen.oneOf("", "+", "-", ".", "(", "+1 ", "+(", "-.", "１", "٣", "\uFF10", ",", ",,", "@", "http", "http://",
      "https://", "HTTP://", "httpx://", " +", "\t-")
    body  <- Gen.frequency(
      3 -> Gen.oneOf("5", "12", "1.5e3", ".5", "5.", "334) 793-0000", "334-793-0000", "334.793.0000", "12/3/2020",
        "2020-1-2", "12:30", "1:05:09", "x.org", "//x.co/a", "a@b.co", "@b.co", "1,234", "1,2,3.4", "e5", "١٢:٣٠", ""),
      // Whole values that pass only through the edge of a check.
      2 -> Gen.oneOf("(334) 793-0000", "+1 (334) 793-0000", "+13347930000", "-5", "+.5", ".5e-3", ",5", "1,000,000",
        "http://x.org", "https://x.co/a", "a@b.co", "9/9/99", "0:00"),
      1 -> genValue,
    )
    edit  <- Gen.choose(0, 4)
    pos   <- Gen.choose(0, 20)
  } yield {
    val v = lead + (if (body == null) "" else body)
    val at = if (v.isEmpty) 0 else pos % (v.length + 1)
    edit match {
      case 0 => v
      case 1 => v.patch(at, ",", 0) // a comma anywhere
      case 2 => v.map(c => if (c == '1') '１' else if (c == '3') '٣' else c) // isDigit, not \d
      case 3 => "@" + v
      case _ => v.toUpperCase(java.util.Locale.ROOT)
    }
  }

  test("each validator equals its per-call compiled expression at the edges of its rejection checks") {
    // The edges are not all rejections: each checked validator accepts some.
    val sample = Gen.listOfN(2000, genEdge).pureApply(Gen.Parameters.default, Seed(23L))
    Seq("validate_date", "validate_time", "validate_url", "validate_email", "validate_number", "validate_phone")
      .foreach(n => assert(sample.exists(PerCallValidators.byName(n)), n))
    val prop = Prop.forAll(genEdge) { v =>
      FunctionEval.allEvals.forall(e => (e.distance(v) == 0.0) == PerCallValidators.byName(e.id.stripPrefix("fun:"))(v))
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(5000).withInitialSeed(Seed(23L)), prop)
    assert(result.passed, result.status)
  }

  test("each validator equals its per-call compiled expression on random and adversarial strings") {
    assert(FunctionEval.allEvals.map(_.id.stripPrefix("fun:")).toSet == PerCallValidators.byName.keySet)
    val prop = Prop.forAll(genValue) { v =>
      FunctionEval.allEvals.forall(e => (e.distance(v) == 0.0) == PerCallValidators.byName(e.id.stripPrefix("fun:"))(v))
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(5000).withInitialSeed(Seed(17L)), prop)
    assert(result.passed, result.status)
  }
}
