package repro.dists

import java.nio.charset.StandardCharsets.UTF_8

import org.apache.spark.sql.DataFrame

/** Pattern-based domain evaluation (paper Sec 3, method 3).
  *
  * Values are generalised to regex-like patterns by collapsing character
  * runs: digits → `\d+`, letters → `[a-zA-Z]+`, whitespace → a single space,
  * other characters kept as literals. A pattern p then defines the 0/1
  * distance f_pat^d(p, v) of Eq 3.
  *
  * The pattern *miner* reproduces Sec 5.1's "generate common patterns
  * observed in our corpus": patterns are ranked by how many corpus columns
  * they dominate. Each column's pattern counts come from one driver-side
  * pass, [[columnCounts]], which the Auto-Detect baseline shares.
  */
object Patterns {

  /** Generalise a value into its character-class pattern. */
  def generalize(raw: String): String = {
    val v = if (raw == null) "" else raw.trim
    if (v.isEmpty) return "<empty>"
    val sb = new StringBuilder
    var i = 0
    while (i < v.length) {
      val c = v.charAt(i)
      if (c.isDigit) {
        while (i < v.length && v.charAt(i).isDigit) i += 1
        // Number token: a digit run with one optional decimal part ("9.8"
        // and "12" generalise alike, as real pattern languages do).
        if (i + 1 < v.length && v.charAt(i) == '.' && v.charAt(i + 1).isDigit) {
          i += 1
          while (i < v.length && v.charAt(i).isDigit) i += 1
        }
        sb.append("\\d+")
      } else if (c.isLetter) {
        while (i < v.length && v.charAt(i).isLetter) i += 1
        sb.append("[a-zA-Z]+")
      } else if (c.isWhitespace) {
        while (i < v.length && v.charAt(i).isWhitespace) i += 1
        sb.append(' ')
      } else {
        sb.append(c)
        i += 1
      }
    }
    // Long mixed patterns are truncated to bound pattern-space cardinality.
    val p = sb.toString
    if (p.length > 60) p.substring(0, 60) + "…" else p
  }

  /** Each column's pattern counts: (column id, value) rows grouped by column
    * id, as SQL groups them, with `pattern` applied to each value. A null
    * column id never joins to its column in SQL; its rows are skipped.
    */
  def columnCounts(rows: Iterator[(String, String)],
                   pattern: String => String = generalize): Iterable[Map[String, Long]] =
    rows.filter(_._1 != null).toSeq.groupMap(_._1)(r => pattern(r._2)).values
      .map(_.groupMapReduce(identity)(_ => 1L)(_ + _))

  /** Mine the `topK` patterns that most often *dominate* a corpus column
    * (cover >= 80% of its values) from (column id, value) rows. They
    * rank by the number of columns dominated, descending, ties in UTF-8 byte
    * order, as Spark orders strings. A pattern is counted as the string Spark
    * stores for it, so an unpaired surrogate reads '?'.
    */
  def mine(rows: Iterator[(String, String)], topK: Int): Seq[String] =
    columnCounts(rows, { v =>
      val p = generalize(v) // a UTF-8 round trip, as Spark stores strings
      if (p.exists(Character.isSurrogate)) new String(p.getBytes(UTF_8), UTF_8) else p
    }).toSeq
      .flatMap { counts =>
        val total = counts.values.sum
        counts.collect { case (pattern, cnt) if cnt >= total * 0.8 && pattern != "<empty>" => pattern }
      }
      .groupMapReduce(identity)(_ => 1L)(_ + _).toSeq
      .map { case (pattern, n) => (pattern, n, pattern.getBytes(UTF_8)) }
      .sortWith { (a, b) => a._2 > b._2 || (a._2 == b._2 && java.util.Arrays.compareUnsigned(a._3, b._3) < 0) }
      .take(topK)
      .map(_._1)

  /** [[mine]] over a DataFrame with (col_id: string, value: string). */
  def minePatterns(exploded: DataFrame, topK: Int): Seq[String] =
    mine(exploded.select("col_id", "value").collect().iterator.map(r => (r.getString(0), r.getString(1))), topK)

  /** The most frequent pattern of `pats` and its count; ties go to the first in `groupBy`'s map. */
  def dominant(pats: Seq[String]): (String, Int) = pats.groupBy(identity).view.mapValues(_.size).maxBy(_._2)
}

/** 0/1 distance to a fixed pattern (Eq 3). [[EvalBank]] reads `pattern` to
  * generalize each value once for all patterns.
  */
final class PatternEval(private[dists] val pattern: String) extends DomainEval {
  override val id: String = s"pat:$pattern"
  override def family: String = DomainEval.Pattern
  override def distance(v: String): Double =
    if (Patterns.generalize(v) == pattern) 0.0 else 1.0
}
