package repro.dists

import java.util.regex.Pattern

/** Function-based domain evaluation (paper Sec 3, method 4).
  *
  * Eight validation functions in the spirit of DataPrep / python-validators,
  * implemented for real (including Luhn's checksum for credit cards, real
  * calendar bounds for dates). Each yields a 0/1 distance via Eq 4, and is
  * reached only as a [[FunctionEval]].
  */
private[dists] object Validators {

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

  // The validators of normalized values. A digit is ASCII [0-9] in all of
  // them, as `\d` is, not Char.isDigit: `toInt` would read other scripts'
  // digits. Before running its matcher, each rejects only values that its
  // pattern cannot match: a first char that the pattern cannot start with,
  // a url without "http", an email without '@'.

  private def isDigit(c: Char): Boolean = c >= '0' && c <= '9'

  private def startsWithDigit(v: String): Boolean = v.nonEmpty && isDigit(v.charAt(0))

  /** M/d/yyyy, M/d/yy, or yyyy-MM-dd with real calendar bounds. */
  private def date(v: String): Boolean = {
    def ok(y: Int, m: Int, d: Int): Boolean = {
      if (m < 1 || m > 12 || d < 1) return false
      val leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0
      d <= (if (m == 2 && leap) 29 else MonthDays(m - 1))
    }
    startsWithDigit(v) && (v match {
      case DateSlash(m, d, y) =>
        val year = if (y.length == 2) 1900 + y.toInt else y.toInt
        ok(year, m.toInt, d.toInt)
      case DateIso(y, m, d) => ok(y.toInt, m.toInt, d.toInt)
      case _                => false
    })
  }

  private def time(v: String): Boolean = startsWithDigit(v) && (v match {
    case Hms(h, m, s) => h.toInt < 24 && m.toInt < 60 && (s == null || s.toInt < 60)
    case _            => false
  })

  private def url(v: String): Boolean = v.startsWith("http") && Url.matcher(v).matches()

  private def email(v: String): Boolean = v.indexOf('@') >= 0 && Email.matcher(v).matches()

  private def ip(v: String): Boolean = {
    val parts = v.split("\\.", -1)
    parts.length == 4 && parts.forall { p =>
      p.nonEmpty && p.length <= 3 && p.forall(isDigit) && p.toInt <= 255 &&
        !(p.length > 1 && p.startsWith("0"))
    }
  }

  /** Luhn checksum over 13–19 digits (credit-card numbers, paper's [2]). */
  private def creditCard(v: String): Boolean = {
    val digits = CardSep.matcher(v).replaceAll("")
    if (digits.length < 13 || digits.length > 19 || !digits.forall(isDigit)) return false
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

  private def number(v: String): Boolean = {
    val s = if (v.indexOf(',') >= 0) v.replace(",", "") else v
    s.nonEmpty && "0123456789+-.".indexOf(s.charAt(0)) >= 0 && Number.matcher(s).matches()
  }

  private def phone(v: String): Boolean =
    v.nonEmpty && "0123456789+(".indexOf(v.charAt(0)) >= 0 && Phone.matcher(v).matches()

  /** The 8 validation functions, named as in the paper's examples, each on
    * a value already normalized by [[DomainEval.normalize]].
    */
  private[dists] val onNormalized: IndexedSeq[(String, String => Boolean)] = IndexedSeq(
    "validate_date"        -> date _,
    "validate_time"        -> time _,
    "validate_url"         -> url _,
    "validate_email"       -> email _,
    "validate_ip"          -> ip _,
    "validate_credit_card" -> creditCard _,
    "validate_number"      -> number _,
    "validate_phone"       -> phone _,
  )
}

/** 0/1 distance from a validation function (Eq 4). `onNormalized` takes
  * the value's normalized form, which [[EvalBank]] computes once for every
  * family that reads it.
  */
final class FunctionEval private (name: String, onNormalized: String => Boolean) extends DomainEval {
  override val id: String = s"fun:$name"
  override def family: String = DomainEval.Function
  override def distance(v: String): Double = normalizedDistance(DomainEval.normalize(v))
  private[dists] def normalizedDistance(v: String): Double = if (onNormalized(v)) 0.0 else 1.0
}

object FunctionEval {

  /** The 8 validation functions as evaluators, in registry order: the one
    * way to a validator, read by the registry, the DataPrep and Validators
    * baselines and GPT-sim's format check.
    */
  val allEvals: IndexedSeq[FunctionEval] =
    Validators.onNormalized.map { case (n, f) => new FunctionEval(n, f) }
}
