package repro.experiments

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}

import repro.SparkSpec

/** The fixed point: Tables 3–9 and 12, rendered by their drivers at the
  * tables' scale, equal their committed files in `bench/results` byte for
  * byte, as `sbt bench/test` writes them. A change that moves a cell updates the
  * committed file in the same diff.
  *
  * The one exception is Table 5's latency column, headed [[Table5Timing]]:
  * it is wall-clock, so its cells (and its width) are masked in both texts.
  * Only Table 3 computes in Spark.
  */
class FixedPointSpec extends SparkSpec {

  private val Table5Timing = "µs/col"

  private def committed(name: String): String =
    new String(Files.readAllBytes(Paths.get("bench", "results", s"$name.txt")), StandardCharsets.UTF_8)

  /** `text` with every table line's cell under `header` replaced by "*". */
  private def maskColumn(text: String, header: String): String = {
    val lines = text.split("\n", -1)
    val col = lines.iterator.filter(_.startsWith("|")).map(_.split("\\|", -1).indexWhere(_.trim == header))
      .find(_ >= 0).getOrElse(fail(s"no column headed '$header'"))
    lines.map(l => if (l.startsWith("|")) l.split("\\|", -1).updated(col, "*").mkString("|") else l).mkString("\n")
  }

  /** Fails naming the first line where `got` and `want` differ. */
  private def assertSame(name: String, got: String, want: String): Unit =
    if (got != want) {
      val (g, w) = (got.split("\n", -1), want.split("\n", -1))
      val i = g.indices.find(i => i >= w.length || g(i) != w(i)).getOrElse(g.length)
      fail(s"$name.txt differs at line ${i + 1}:\n  rendered:  ${g.lift(i).getOrElse("<end>")}\n" +
        s"  committed: ${w.lift(i).getOrElse("<end>")}")
    }

  private def fixed(name: String, mask: Option[String] = None)(rendered: => String): Unit =
    test(s"$name renders as bench/results/$name.txt") {
      val (got, want) = (rendered + "\n", committed(name))
      mask match {
        case Some(h) => assertSame(name, maskColumn(got, h), maskColumn(want, h))
        case None    => assertSame(name, got, want)
      }
    }

  fixed("table3")(Tables.runTable3(spark).rendered)
  fixed("table4")(Tables.runTable4().rendered)
  fixed("table5", mask = Some(Table5Timing))(Tables.runTable5().rendered)
  fixed("table6")(Tables.runTable6().rendered)
  fixed("table7")(Tables.runTable7().rendered)
  fixed("table8")(Tables.runTable8().scored.rendered)
  fixed("table9")(Tables.runTable9().rendered)
  fixed("table12")(Tables.runTable12().rendered)

  test("the table 5 mask covers only the latency column") {
    val t = committed("table5")
    val masked = maskColumn(t, Table5Timing)
    assert(masked != t && masked.split("\n").forall(l => !l.startsWith("|") || l.endsWith("|*|")), masked)
    assert(maskColumn(t.replace("0.76", "0.77"), Table5Timing) != masked)
  }
}
