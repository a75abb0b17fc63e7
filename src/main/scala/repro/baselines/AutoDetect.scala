package repro.baselines

import repro.corpus.{ColumnStore, TableColumn}
import repro.dists.Patterns

/** Auto-Detect-style detector (paper Sec 6.2, [33]): flags values whose
  * syntactic pattern rarely co-occurs with the column's dominant pattern,
  * using corpus-level pattern co-occurrence statistics (counted from each
  * corpus column's pattern set). Pattern-only, so coverage is limited to
  * syntax-structured errors — the limitation the paper notes.
  *
  * Both maps are keyed on the strings `Patterns.generalize` returns, and a
  * pair is keyed in `String` order.
  */
final class AutoDetect(
    patternCols: Map[String, Long],
    coocCols: Map[(String, String), Long],
) extends ErrorDetector {

  override val name = AutoDetect.name

  /** Incompatibility of a value pattern with the column's dominant pattern:
    * −log P(pVal co-occurs | column has pDom), smoothed. High when the pair
    * essentially never co-occurs in clean corpus columns.
    */
  private def incompatibility(pDom: String, pVal: String): Double = {
    if (pDom == pVal) return 0.0
    val cD = patternCols.getOrElse(pDom, 0L).toDouble
    val key = if (pDom <= pVal) (pDom, pVal) else (pVal, pDom)
    val cDV = coocCols.getOrElse(key, 0L).toDouble
    -math.log((cDV + 0.5) / (cD + 1.0))
  }

  override def detect(col: TableColumn): Seq[(String, Double)] = {
    if (col.values.size < 4) return Seq.empty
    val pats = col.values.map(Patterns.generalize)
    val (dominant, nDom) = Patterns.dominant(pats)
    if (nDom.toDouble / col.values.size < 0.7) return Seq.empty
    // log 2 ⇔ co-occurrence probability below ~1/2: only flag genuinely
    // rare pattern pairs, not common companions (e.g. two date formats).
    col.values.indices.collect {
      case i if pats(i) != dominant =>
        (col.values(i), incompatibility(dominant, pats(i)))
    }.filter(_._2 > math.log(2.0))
  }
}

object AutoDetect {

  /** The detector's name, known before a corpus is counted. */
  val name = "AutoDetect"

  /** Count, over the corpus columns, the columns that hold each pattern and
    * each pair of patterns.
    */
  def train(corpus: Seq[TableColumn]): AutoDetect = {
    val patternSets = Patterns.columnCounts(ColumnStore.rows(corpus)).map(_.keys.toIndexedSeq.sorted)
    val pairs = patternSets.view.flatMap(_.combinations(2).map(pq => (pq(0), pq(1))))
    new AutoDetect(patternSets.view.flatten.groupMapReduce(identity)(_ => 1L)(_ + _),
      pairs.groupMapReduce(identity)(_ => 1L)(_ + _))
  }
}
