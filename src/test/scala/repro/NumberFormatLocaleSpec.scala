package repro

import org.scalatest.funsuite.AnyFunSuite

/** No number in the program is formatted in the JVM's default locale, which
  * may use a decimal comma (tr-TR, de-DE) or non-ASCII digits
  * (th-TH-u-nu-thai). A numeric conversion (%d, %f, %e, %g) may appear only
  * in a format bound to `Locale.ROOT`: `"…".formatLocal(Locale.ROOT, …)` or
  * `String.format(Locale.ROOT, …)`, never in an `f""` interpolator or a bare
  * `.format(…)`. The scan reads one line at a time, so the locale goes on
  * the line of the call.
  */
class NumberFormatLocaleSpec extends AnyFunSuite {

  /** A numeric conversion with any flags, width and precision, the precision
    * possibly interpolated (`%.${digits}f`).
    */
  private val Numeric = """%[-#+ 0,(]*\d*(\.(\d+|\$\{[^}]*\}))?[dfeEgG]""".r
  private val FLiteral = """\bf"((?:[^"\\]|\\.)*)"""".r
  /** `"…".format(…)`, or a format call whose locale is not `Locale.ROOT`. */
  private val UnboundCall = """(?<!String)\.format\(|(String\.format|\.formatLocal)\((?!\s*Locale\.ROOT\b)""".r

  /** Whether `line` formats a number in a locale other than `Locale.ROOT`. */
  private def offends(line: String): Boolean =
    FLiteral.findAllMatchIn(line).exists(m => Numeric.findFirstIn(m.group(1)).nonEmpty) ||
      (Numeric.findFirstIn(line).nonEmpty && UnboundCall.findFirstIn(line).nonEmpty)

  test("the scan flags default-locale numeric formats and passes Locale.ROOT ones") {
    Seq("""f"${x}%.2f"""", """f"$n%07d"""", """"%.1f".format(x)""", """String.format("%d", n)""",
      """"%e".formatLocal(Locale.GERMANY, x)""", """s"%.${d}f".format(x)""",
      """"%d".format(n) + "%s".formatLocal(Locale.ROOT, x)""")
      .foreach(l => assert(offends(l), l))
    Seq(""""%.2f".formatLocal(Locale.ROOT, x)""", """String.format(Locale.ROOT, "%g", x)""",
      """f"$name%-20s"""", """s"${pct}%"""", """"%.0f%%" + f"$s%-6s"""")
      .foreach(l => assert(!offends(l), l))
  }

  test("no numeric format in src/main or jobs/ reads the default locale") {
    assert(ProgramSources.all.exists(_._2.exists(_.contains(".formatLocal(Locale.ROOT"))))
    val found = for ((f, lines) <- ProgramSources.all; (l, i) <- lines.zipWithIndex if offends(l))
      yield s"$f:${i + 1}: ${l.trim}"
    assert(found.isEmpty, found.mkString("\n"))
  }
}
