package repro.corpus

import java.util.Locale
import java.util.Locale.Category

import org.scalatest.funsuite.AnyFunSuite
import repro.dists.DomainEval
import repro.experiments.Experiments

/** Case mapping and number formatting do not read the JVM's default locale:
  * under tr-TR, whose case rules map 'I' to dotless 'ı' and 'i' to 'İ' and
  * whose decimal separator is ',', and under th-TH with Thai digits, values
  * normalize, generate and render as in the default locale.
  */
class LocaleIndependenceSpec extends AnyFunSuite {

  private val turkish = Locale.forLanguageTag("tr-TR")
  private val thaiDigits = Locale.forLanguageTag("th-TH-u-nu-thai")

  /** Runs `body` with every default locale category set to `l`, and restores them. */
  private def under[A](l: Locale)(body: => A): A = {
    val saved = (Locale.getDefault, Locale.getDefault(Category.FORMAT), Locale.getDefault(Category.DISPLAY))
    Locale.setDefault(l)
    try body
    finally {
      Locale.setDefault(saved._1)
      Locale.setDefault(Category.FORMAT, saved._2)
      Locale.setDefault(Category.DISPLAY, saved._3)
    }
  }

  private def generated = (
    CorpusGen.generate(CorpusGen.relationalProfile(nCols = 120)),
    BenchGen.generate(BenchGen.stProfile(nCols = 120)),
    BenchGen.generate(BenchGen.rtProfile(nCols = 120)),
    CleaningDatasets.datasetNames.map(CleaningDatasets.dataset),
  )

  test("normalize lowercases in Locale.ROOT under tr-TR") {
    assert("TITLE".toLowerCase(turkish) == "tıtle") // the locale does remap
    assert(under(turkish)(DomainEval.normalize(" TITLE ")) == "title")
    assert(under(turkish)(DomainEval.normalize("İ")) == "İ".toLowerCase(Locale.ROOT))
  }

  test("a generated corpus, benchmark and cleaning datasets equal the default-locale ones under tr-TR") {
    val default = generated // first, so every generator is initialised in the default locale
    val tr = under(turkish)(generated)
    assert(Locale.getDefault != turkish)
    assert(default._1.exists(_.values.exists(v => v.exists(_.isUpper) && v.toLowerCase(Locale.ROOT).contains('i'))))
    assert(tr._1 == default._1)
    assert(tr._2 == default._2)
    assert(tr._3 == default._3)
    assert(tr._4 == default._4)
  }

  test("generated data and rendered numbers equal the default-locale ones under Thai digits") {
    assert("%d".formatLocal(thaiDigits, 1234567) != "1234567") // the locale does remap
    def rendered = (Experiments.fmtPair((0.5, 0.666)), Experiments.fmt(1234.5, 4),
      Experiments.table(Seq("a", "bb"), Seq(Seq("0.76", "1234"))))
    val default = (generated, rendered)
    val th = under(thaiDigits)((generated, rendered))
    assert(Locale.getDefault != thaiDigits)
    assert(th._1._1 == default._1._1)
    assert(th._1._2 == default._1._2)
    assert(th._1._3 == default._1._3)
    assert(th._1._4 == default._1._4)
    assert(th._2 == default._2)
    assert(default._2._1 == "0.50, 0.67")
  }
}
