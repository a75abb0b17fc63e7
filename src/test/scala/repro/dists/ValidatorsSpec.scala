package repro.dists

import org.scalatest.funsuite.AnyFunSuite

object ValidatorsSpec {

  /** Whether the registry's `validate_<kind>` evaluator accepts raw: distance 0 (Eq 4). */
  def accepts(kind: String)(raw: String): Boolean =
    FunctionEval.allEvals.find(_.id == s"fun:validate_$kind").get.distance(raw) == 0.0
}

class ValidatorsSpec extends AnyFunSuite {
  import ValidatorsSpec.accepts

  // ------------------------------------------------------------------ dates
  test("validateDate accepts M/d/yyyy") { assert(accepts("date")("12/3/2020")) }
  test("validateDate accepts M/d/yy (rayyan style)") { assert(accepts("date")("1/1/71")) }
  test("validateDate accepts iso") { assert(accepts("date")("2021-02-05")) }
  test("validateDate accepts leap day 2/29/2020") { assert(accepts("date")("2/29/2020")) }
  test("validateDate rejects 2/29/2021 (non-leap)") { assert(!accepts("date")("2/29/2021")) }
  test("validateDate rejects month 13") { assert(!accepts("date")("13/1/2020")) }
  test("validateDate rejects day 32") { assert(!accepts("date")("1/32/2020")) }
  test("validateDate rejects the Fig 2 error 'new facility'") { assert(!accepts("date")("new facility")) }
  test("validateDate rejects 'nan' (Table 11)") { assert(!accepts("date")("nan")) }
  test("validateDate rejects 'june' alone") { assert(!accepts("date")("june")) }

  // ------------------------------------------------------------------ times
  test("validateTime accepts HH:mm:ss") { assert(accepts("time")("23:59:59")) }
  test("validateTime accepts H:mm") { assert(accepts("time")("9:30")) }
  test("validateTime rejects hour 24") { assert(!accepts("time")("24:00:00")) }
  test("validateTime rejects minute 60") { assert(!accepts("time")("10:60")) }
  test("validateTime rejects garbage") { assert(!accepts("time")("noon")) }

  // ------------------------------------------------------------------- urls
  test("validateUrl accepts https url") { assert(accepts("url")("https://twitter.com/status/803706869944565760")) }
  test("validateUrl accepts http with path") { assert(accepts("url")("http://example.org/a/b")) }
  test("validateUrl rejects the Fig 2 truncated url") { assert(!accepts("url")("_/status/799512626703323140")) }
  test("validateUrl rejects bare domain") { assert(!accepts("url")("example.org")) }
  test("validateUrl rejects whitespace url") { assert(!accepts("url")("https://a b.com")) }

  // ------------------------------------------------------------------ email
  test("validateEmail accepts plain address") { assert(accepts("email")("a.b@example.org")) }
  test("validateEmail rejects missing at") { assert(!accepts("email")("a.example.org")) }
  test("validateEmail rejects missing tld") { assert(!accepts("email")("a@example")) }

  // --------------------------------------------------------------------- ip
  test("validateIp accepts 192.168.0.1") { assert(accepts("ip")("192.168.0.1")) }
  test("validateIp accepts 0.0.0.0") { assert(accepts("ip")("0.0.0.0")) }
  test("validateIp rejects octet 256") { assert(!accepts("ip")("1.2.3.256")) }
  test("validateIp rejects 3 octets") { assert(!accepts("ip")("1.2.3")) }
  test("validateIp rejects leading zero octet") { assert(!accepts("ip")("01.2.3.4")) }
  test("validateIp rejects Arabic-Indic digits, which parseInt would read as 192.168.1.1") {
    assert(accepts("ip")("192.168.1.1"))
    assert(!accepts("ip")("١٩٢.١٦٨.١.١"))
  }

  // ----------------------------------------------------------- credit cards
  test("validateCreditCard accepts a known Luhn-valid number") {
    assert(accepts("credit_card")("4532015112830366"))
  }
  test("validateCreditCard rejects a checksum-broken number") {
    assert(!accepts("credit_card")("4532015112830367"))
  }
  test("validateCreditCard accepts dashed format") {
    assert(accepts("credit_card")("4532-0151-1283-0366"))
  }
  test("validateCreditCard rejects short numbers") {
    assert(!accepts("credit_card")("411111"))
  }
  test("validateCreditCard rejects letters") {
    assert(!accepts("credit_card")("4532a15112830366"))
  }
  test("validateCreditCard rejects full-width digits") {
    assert(accepts("credit_card")("4111111111111111"))
    assert(!accepts("credit_card")("４１１１１１１１１１１１１１１１"))
  }

  // ---------------------------------------------------------------- numbers
  test("validateNumber accepts ints, floats, scientific") {
    assert(accepts("number")("42"))
    assert(accepts("number")("-3.14"))
    assert(accepts("number")("1e-5"))
    assert(accepts("number")("1,234.5"))
  }
  test("validateNumber rejects words and mixed") {
    assert(!accepts("number")("12 oz"))
    assert(!accepts("number")("abc"))
    assert(!accepts("number")(""))
  }

  // ------------------------------------------------------------------ phone
  test("validatePhone accepts common shapes") {
    assert(accepts("phone")("334-793-0000"))
    assert(accepts("phone")("(334) 793-0000"))
  }
  test("validatePhone rejects short strings") {
    assert(!accepts("phone")("793-0000x"))
  }

  // ---------------------------------------------------------------- general
  test("all 8 validators are registered with unique names") {
    assert(FunctionEval.allEvals.size == 8)
    assert(FunctionEval.allEvals.map(_.id).distinct.size == 8)
  }

  test("validators are null/whitespace safe") {
    FunctionEval.allEvals.foreach { e =>
      assert(e.distance(null) == 1.0, e.id)
      assert(e.distance("   ") == 1.0, e.id)
    }
  }

  test("FunctionEval distance is 0 on valid, 1 on invalid (Eq 4)") {
    val dateEval = FunctionEval.allEvals.find(_.id == "fun:validate_date").get
    assert(dateEval.distance("12/3/2020") == 0.0)
    assert(dateEval.distance("new facility") == 1.0)
  }

  test("FunctionEval ids carry the fun: prefix and function family") {
    FunctionEval.allEvals.foreach { e =>
      assert(e.id.startsWith("fun:validate_"))
      assert(e.family == DomainEval.Function)
    }
  }
}
