package repro.dists

import org.scalatest.funsuite.AnyFunSuite

class ValidatorsSpec extends AnyFunSuite {

  // ------------------------------------------------------------------ dates
  test("validateDate accepts M/d/yyyy") { assert(Validators.validateDate("12/3/2020")) }
  test("validateDate accepts M/d/yy (rayyan style)") { assert(Validators.validateDate("1/1/71")) }
  test("validateDate accepts iso") { assert(Validators.validateDate("2021-02-05")) }
  test("validateDate accepts leap day 2/29/2020") { assert(Validators.validateDate("2/29/2020")) }
  test("validateDate rejects 2/29/2021 (non-leap)") { assert(!Validators.validateDate("2/29/2021")) }
  test("validateDate rejects month 13") { assert(!Validators.validateDate("13/1/2020")) }
  test("validateDate rejects day 32") { assert(!Validators.validateDate("1/32/2020")) }
  test("validateDate rejects the Fig 2 error 'new facility'") { assert(!Validators.validateDate("new facility")) }
  test("validateDate rejects 'nan' (Table 11)") { assert(!Validators.validateDate("nan")) }
  test("validateDate rejects 'june' alone") { assert(!Validators.validateDate("june")) }

  // ------------------------------------------------------------------ times
  test("validateTime accepts HH:mm:ss") { assert(Validators.validateTime("23:59:59")) }
  test("validateTime accepts H:mm") { assert(Validators.validateTime("9:30")) }
  test("validateTime rejects hour 24") { assert(!Validators.validateTime("24:00:00")) }
  test("validateTime rejects minute 60") { assert(!Validators.validateTime("10:60")) }
  test("validateTime rejects garbage") { assert(!Validators.validateTime("noon")) }

  // ------------------------------------------------------------------- urls
  test("validateUrl accepts https url") { assert(Validators.validateUrl("https://twitter.com/status/803706869944565760")) }
  test("validateUrl accepts http with path") { assert(Validators.validateUrl("http://example.org/a/b")) }
  test("validateUrl rejects the Fig 2 truncated url") { assert(!Validators.validateUrl("_/status/799512626703323140")) }
  test("validateUrl rejects bare domain") { assert(!Validators.validateUrl("example.org")) }
  test("validateUrl rejects whitespace url") { assert(!Validators.validateUrl("https://a b.com")) }

  // ------------------------------------------------------------------ email
  test("validateEmail accepts plain address") { assert(Validators.validateEmail("a.b@example.org")) }
  test("validateEmail rejects missing at") { assert(!Validators.validateEmail("a.example.org")) }
  test("validateEmail rejects missing tld") { assert(!Validators.validateEmail("a@example")) }

  // --------------------------------------------------------------------- ip
  test("validateIp accepts 192.168.0.1") { assert(Validators.validateIp("192.168.0.1")) }
  test("validateIp accepts 0.0.0.0") { assert(Validators.validateIp("0.0.0.0")) }
  test("validateIp rejects octet 256") { assert(!Validators.validateIp("1.2.3.256")) }
  test("validateIp rejects 3 octets") { assert(!Validators.validateIp("1.2.3")) }
  test("validateIp rejects leading zero octet") { assert(!Validators.validateIp("01.2.3.4")) }
  test("validateIp rejects Arabic-Indic digits, which parseInt would read as 192.168.1.1") {
    assert(Validators.validateIp("192.168.1.1"))
    assert(!Validators.validateIp("١٩٢.١٦٨.١.١"))
  }

  // ----------------------------------------------------------- credit cards
  test("validateCreditCard accepts a known Luhn-valid number") {
    assert(Validators.validateCreditCard("4532015112830366"))
  }
  test("validateCreditCard rejects a checksum-broken number") {
    assert(!Validators.validateCreditCard("4532015112830367"))
  }
  test("validateCreditCard accepts dashed format") {
    assert(Validators.validateCreditCard("4532-0151-1283-0366"))
  }
  test("validateCreditCard rejects short numbers") {
    assert(!Validators.validateCreditCard("411111"))
  }
  test("validateCreditCard rejects letters") {
    assert(!Validators.validateCreditCard("4532a15112830366"))
  }
  test("validateCreditCard rejects full-width digits") {
    assert(Validators.validateCreditCard("4111111111111111"))
    assert(!Validators.validateCreditCard("４１１１１１１１１１１１１１１１"))
  }

  // ---------------------------------------------------------------- numbers
  test("validateNumber accepts ints, floats, scientific") {
    assert(Validators.validateNumber("42"))
    assert(Validators.validateNumber("-3.14"))
    assert(Validators.validateNumber("1e-5"))
    assert(Validators.validateNumber("1,234.5"))
  }
  test("validateNumber rejects words and mixed") {
    assert(!Validators.validateNumber("12 oz"))
    assert(!Validators.validateNumber("abc"))
    assert(!Validators.validateNumber(""))
  }

  // ------------------------------------------------------------------ phone
  test("validatePhone accepts common shapes") {
    assert(Validators.validatePhone("334-793-0000"))
    assert(Validators.validatePhone("(334) 793-0000"))
  }
  test("validatePhone rejects short strings") {
    assert(!Validators.validatePhone("793-0000x"))
  }

  // ---------------------------------------------------------------- general
  test("all 8 validators are registered with unique names") {
    assert(Validators.all.size == 8)
    assert(Validators.all.map(_._1).distinct.size == 8)
  }

  test("validators are null/whitespace safe") {
    Validators.all.foreach { case (n, f) =>
      assert(!f(null), n)
      assert(!f("   "), n)
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
