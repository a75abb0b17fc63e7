package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Prediction
import repro.corpus.{CorpusGen, TableColumn}
import repro.domains.Vocab
import repro.experiments.Baselines

class BaselinesSpec extends AnyFunSuite {

  private def col(id: String, vals: Seq[String]) = TableColumn(id, "d", vals, Nil, vals.size.toLong)

  // Fig 2 style columns with one real error each.
  private val monthCol = col("months", Vocab.months.filterNot(_ == "february") :+ "febuary")
  private val unitCol  = col("units", (1 to 19).map(j => s"$j oz") :+ "0.05%")
  private val dateCol  = col("dates", (1 to 15).map(j => s"$j/10/2020") :+ "new facility")
  // Fig 3 trap: valid column with uncommon names.
  private val nameCol = col("names", Vocab.firstName.common.take(12) ++ Vocab.firstName.uncommon.take(3))

  test("z-scores are empty for degenerate columns") {
    assert(ZScoreBaselines.zScores(Array(1.0, 1.0, 1.0)).isEmpty)
    assert(ZScoreBaselines.zScores(Array(1.0, 2.0)).isEmpty)
  }

  test("z-scores standardise: mean 0, sd 1") {
    val z = ZScoreBaselines.zScores(Array(1.0, 2.0, 3.0, 4.0))
    assert(math.abs(z.sum) < 1e-9)
  }

  test("Glove baseline flags the month typo top-ranked") {
    val preds = Baselines("Glove").detect(monthCol)
    assert(preds.nonEmpty)
    assert(preds.maxBy(_._2)._1 == "febuary")
  }

  test("Glove baseline false-positives on uncommon names (Example 2)") {
    val preds = Baselines("Glove").detect(nameCol)
    val flaggedUncommon = preds.map(_._1).toSet.intersect(Vocab.firstName.uncommon.take(3).toSet)
    assert(flaggedUncommon.nonEmpty, "expected OOV uncommon names to be flagged as FPs")
  }

  test("Regex baseline flags the unit-column error") {
    val preds = Baselines("Regex").detect(unitCol)
    assert(preds.map(_._1) == Seq("0.05%"))
  }

  test("DataPrep baseline flags the invalid date") {
    val preds = Baselines("DataPrep").detect(dateCol)
    assert(preds.map(_._1).contains("new facility"))
  }

  test("all 7 column-type baselines have unique names") {
    val names = Baselines.group("Column-type").map(_.name)
    assert(names.size == 7 && names.distinct.size == 7)
  }

  test("GPT-sim detects placeholders and typos with high recall") {
    val det = Baselines("few-shot-with-COT")
    val predsM = det.detect(monthCol).map(_._1)
    val predsD = det.detect(dateCol).map(_._1)
    assert(predsM.contains("febuary"))
    assert(predsD.contains("new facility"))
  }

  test("GPT-sim confidence is coarse (at most 2 levels)") {
    val det = Baselines("few-shot-with-COT")
    val confs = (monthCol :: unitCol :: dateCol :: Nil).flatMap(det.detect).map(_._2).distinct
    assert(confs.toSet.subsetOf(Set(0.6, 0.9)))
  }

  test("GPT-sim false-positive rate grows across prompt variants") {
    // many columns of unknown code-words: count hallucinated detections
    val codeCols = (0 until 40).map(i => col(s"code$i", (1 to 15).map(j => s"qz${i}_$j xx")))
    def fps(d: ErrorDetector) = codeCols.map(c => d.detect(c).size).sum
    val best = fps(Baselines("few-shot-with-COT"))
    val worst = fps(Baselines("zero-shot-no-COT"))
    assert(best < worst, s"few-shot-COT $best vs zero-shot $worst")
  }

  test("GPT-sim typo lookup works via deletion signatures") {
    assert(GptSim.isTypoOfKnown("febuary"))
    assert(GptSim.isTypoOfKnown("seattel"))
    assert(!GptSim.isTypoOfKnown("germany")) // known, not a typo
    assert(!GptSim.isTypoOfKnown("xqzwv"))   // unrelated
  }

  test("Katara maps KB-covered columns and flags non-KB values") {
    val preds = Baselines("Katara").detect(monthCol)
    assert(preds.map(_._1).contains("febuary"))
  }

  test("Katara produces FPs on valid-but-uncommon entities") {
    val preds = Baselines("Katara").detect(nameCol)
    assert(preds.map(_._1).toSet.intersect(Vocab.firstName.uncommon.take(3).toSet).nonEmpty)
  }

  test("Katara skips unmapped columns") {
    assert(Baselines("Katara").detect(unitCol).isEmpty)
  }

  test("AutoDetect learns pattern incompatibility from a corpus") {
    val corpus = CorpusGen.generate(CorpusGen.relationalProfile(nCols = 300))
    val ad = AutoDetect.train(corpus)
    val preds = ad.detect(unitCol)
    assert(preds.map(_._1).contains("0.05%"))
    // but it cannot see semantic (non-pattern) errors
    val semPreds = ad.detect(col("country", Vocab.countriesCommon.take(12) :+ "liechstein"))
    assert(!semPreds.map(_._1).contains("liechstein"))
  }

  test("AutoDetect finds the co-occurrence of non-ASCII patterns") {
    // "\d+😀" sorts below "\d+，" in UTF-16 code units but above it in
    // UTF-8 bytes. 59 dashes then an emoji generalise to a pattern cut
    // inside the surrogate pair.
    val emoji = "\uD83D\uDE00"
    val splitPair = "-" * 59 + emoji
    val corpus = (1 to 10).map(i => col(s"c$i", Seq(s"$i，", s"${i + 1}，", s"$i$emoji", splitPair)))
    val ad = AutoDetect.train(corpus)
    val detected = col("d", (1 to 8).map(j => s"$j，") ++ Seq(s"7$emoji", splitPair))
    assert(ad.detect(detected).isEmpty)
    // a pattern the corpus never holds next to "\d+，" is still flagged
    assert(ad.detect(col("e", (1 to 8).map(j => s"$j，") :+ "x-y")).map(_._1) == Seq("x-y"))
  }

  test("Vendor-A only fires on strongly dominant patterns") {
    val a = Baselines("Vendor-A")
    assert(a.detect(unitCol).map(_._1) == Seq("0.05%"))
    val mixed = col("mixed", (1 to 6).map(j => s"$j oz") ++ (1 to 6).map(j => s"x$j"))
    assert(a.detect(mixed).isEmpty)
  }

  test("Vendor-B is a conservative spell-checker") {
    val b = Baselines("Vendor-B")
    assert(b.detect(monthCol).map(_._1).contains("febuary"))
    assert(b.detect(unitCol).isEmpty)
  }

  test("predictions are each column's detections, in column order") {
    val det = Baselines("Regex")
    val cols = (0 until 60).map(i => Seq(unitCol, dateCol, monthCol, nameCol)(i % 4).copy(colId = s"c$i"))
    val local = cols.flatMap(c => det.detect(c).map { case (v, s) => Prediction(c.colId, v, s) })
    assert(local.map(_.colId).distinct.size > 10)
    assert(det.predictions(cols) == local)
  }
}
