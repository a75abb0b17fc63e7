package repro

import org.scalatest.funsuite.AnyFunSuite

/** No program code that only tests call. Every `def`, `val`, `lazy val`,
  * `class` and `object` declared at the start of a line in `src/main` or
  * `jobs/`, unless `private` or `override`, is named as a whole word on some
  * other line of the program, of the paper table suites (`bench/`) or of the
  * benchmark harness (`perfbench/src`); comment lines do not count. The one
  * exception is `main`, which the JVM calls. The scan reads names, not
  * types, so a name used anywhere covers every declaration of it.
  */
class ProgramSurfaceSpec extends AnyFunSuite {

  private val Decl =
    """^\s*((?:(?:final|sealed|abstract|implicit|case|lazy|protected|private|override)(?:\[\w+\])?\s+)*)(?:def|val|class|object)\s+(\w+)""".r.unanchored
  private val Word = """\w+""".r

  /** The name a line declares, unless it is private or an override. */
  private def declared(line: String): Option[String] = line match {
    case Decl(mods, name) if !mods.contains("private") && !mods.contains("override") => Some(name)
    case _                                                                            => None
  }

  private def isComment(line: String): Boolean = {
    val t = line.trim
    t.startsWith("//") || t.startsWith("/*") || t.startsWith("*")
  }

  test("the scan reads the declarations it checks and skips the rest") {
    Seq("def norm2(a: Vec): Double = 1.0" -> "norm2", "  lazy val methods: Seq[Method] = {" -> "methods",
      "final case class Sdc(" -> "Sdc", "object LinAlg {" -> "LinAlg", "  protected def scores(x: X) = 1" -> "scores",
      "  implicit val ord: Ordering[Int] = o" -> "ord", "sealed abstract class A" -> "A")
      .foreach { case (l, n) => assert(declared(l).contains(n), l) }
    Seq("  private def isDigit(c: Char) = true", "  private[dists] val onNormalized = 1",
      "  override def detect(col: TableColumn) = Nil", "  final override val name = \"x\"",
      "  val (rows, bank) = (1, 2)", "    x.map(v => v)", "  var count = 0", "  type Vec = Array[Double]")
      .foreach(l => assert(declared(l).isEmpty, l))
    assert(isComment("  * `norm2` below") && isComment("  // norm2") && !isComment("  norm2(a) // x"))
  }

  test("every public definition in src/main or jobs/ has a caller outside the tests") {
    val sources = ProgramSources.withCallers
    assert(sources.exists(_._1.startsWith("bench/")) && sources.exists(_._1.startsWith("perfbench/")))
    // Each word with the (file, line) pairs of the non-comment lines it is on.
    val usedOn: Map[String, Set[(String, Int)]] =
      (for ((f, lines) <- sources; (l, i) <- lines.zipWithIndex if !isComment(l); w <- Word.findAllIn(l))
        yield w -> (f, i)).groupMap(_._1)(_._2).view.mapValues(_.toSet).toMap
    val decls = for ((f, lines) <- ProgramSources.all; (l, i) <- lines.zipWithIndex; n <- declared(l))
      yield (f, i, n)
    assert(decls.size > 500, s"only ${decls.size} declarations read")
    val unused = decls.collect {
      case (f, i, n) if n != "main" && !usedOn.getOrElse(n, Set.empty).exists(_ != ((f, i))) => s"$f:${i + 1}: $n"
    }
    assert(unused.isEmpty, unused.mkString("\n"))
  }
}
