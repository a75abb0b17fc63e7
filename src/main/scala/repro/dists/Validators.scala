package repro.dists

import java.util.regex.Pattern

/** Function-based domain evaluation (paper Sec 3, method 4).
  *
  * Eight validation functions in the spirit of DataPrep / python-validators,
  * implemented for real (including Luhn's checksum for credit cards, real
  * calendar bounds for dates). Each yields a 0/1 distance via Eq 4.
  */
object Validators {

  // Each pattern is compiled once; the validators only run matchers on it.
  private val DateSlash = "^(\\d{1,2})/(\\d{1,2})/(\\d{2}|\\d{4})$".r
  private val DateIso   = "^(\\d{4})-(\\d{1,2})-(\\d{1,2})$".r
  private val Hms       = "^(\\d{1,2}):(\\d{2})(?::(\\d{2}))?$".r
  private val Url       = Pattern.compile("^https?://[a-z0-9][a-z0-9.-]*\\.[a-z]{2,}(?::\\d+)?(?:/[^\\s]*)?$")
  private val Email     = Pattern.compile("^[a-z0-9][a-z0-9._%+-]*@[a-z0-9][a-z0-9.-]*\\.[a-z]{2,}$")
  private val CardSep   = Pattern.compile("[ -]")
  private val Number    = Pattern.compile("^[+-]?(\\d+(\\.\\d*)?|\\.\\d+)([eE][+-]?\\d+)?$")
  private val Phone     = Pattern.compile("^(\\+?1[ .-]?)?(\\(\\d{3}\\)|\\d{3})[ .-]?\\d{3}[ .-]?\\d{4}$")
  private val MonthDays = Array(31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)

  /** M/d/yyyy, M/d/yy, or yyyy-MM-dd with real calendar bounds. */
  def validateDate(raw: String): Boolean = {
    val v = DomainEval.normalize(raw)
    def ok(y: Int, m: Int, d: Int): Boolean = {
      if (m < 1 || m > 12 || d < 1) return false
      val leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
      d <= (if (m == 2 && leap) 29 else MonthDays(m - 1))
    }
    v match {
      case DateSlash(m, d, y) =>
        val year = if (y.length == 2) 1900 + y.toInt else y.toInt
        ok(year, m.toInt, d.toInt)
      case DateIso(y, m, d) => ok(y.toInt, m.toInt, d.toInt)
      case _                => false
    }
  }

  def validateTime(raw: String): Boolean = DomainEval.normalize(raw) match {
    case Hms(h, m, s) => h.toInt < 24 && m.toInt < 60 && (s == null || s.toInt < 60)
    case _            => false
  }

  def validateUrl(raw: String): Boolean = Url.matcher(DomainEval.normalize(raw)).matches()

  def validateEmail(raw: String): Boolean = Email.matcher(DomainEval.normalize(raw)).matches()

  def validateIp(raw: String): Boolean = {
    val v = DomainEval.normalize(raw)
    val parts = v.split("\\.", -1)
    parts.length == 4 && parts.forall { p =>
      p.nonEmpty && p.length <= 3 && p.forall(_.isDigit) && p.toInt <= 255 &&
        !(p.length > 1 && p.startsWith("0"))
    }
  }

  /** Luhn checksum over 13–19 digits (credit-card numbers, paper's [2]). */
  def validateCreditCard(raw: String): Boolean = {
    val digits = CardSep.matcher(DomainEval.normalize(raw)).replaceAll("")
    if (digits.length < 13 || digits.length > 19 || !digits.forall(_.isDigit)) return false
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
    v.nonEmpty && Number.matcher(v).matches()
  }

  def validatePhone(raw: String): Boolean = Phone.matcher(DomainEval.normalize(raw)).matches()

  /** The 8 validation functions, named as in the paper's examples. */
  val all: IndexedSeq[(String, String => Boolean)] = IndexedSeq(
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

/** 0/1 distance from a validation function (Eq 4). */
final class FunctionEval(name: String, fn: String => Boolean) extends DomainEval {
  override val id: String = s"fun:$name"
  override def family: String = DomainEval.Function
  override def distance(v: String): Double = if (fn(v)) 0.0 else 1.0
}

object FunctionEval {
  def allEvals: IndexedSeq[FunctionEval] =
    Validators.all.map { case (n, f) => new FunctionEval(n, f) }
}
