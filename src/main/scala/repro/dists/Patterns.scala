package repro.dists

import org.apache.spark.sql.DataFrame
import org.apache.spark.unsafe.types.UTF8String
import scala.collection.mutable

/** Pattern-based domain evaluation (paper Sec 3, method 3).
  *
  * Values are generalised to regex-like patterns by collapsing character
  * runs: digits → `\d+`, letters → `[a-zA-Z]+`, whitespace → a single space,
  * other characters kept as literals. A pattern p then defines the 0/1
  * distance f_pat^d(p, v) of Eq 3.
  *
  * The pattern *miner* reproduces Sec 5.1's "generate common patterns
  * observed in our corpus": patterns are ranked by how many corpus columns
  * they dominate, counted in one map-side Spark job.
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

  /** Mine the `topK` patterns that most often *dominate* a corpus column
    * (dominance = the pattern covers >= `domFrac` of the column's values).
    * Input: DataFrame with (col_id: string, value: string).
    *
    * One map-side job, no shuffle: each partition counts (column, pattern)
    * pairs, and the driver merges the partial counts, so a column split
    * across partitions is counted whole. Patterns are ranked by the number
    * of columns they dominate, descending, ties by UTF-8 byte order, as
    * Spark orders strings.
    */
  def minePatterns(exploded: DataFrame, topK: Int = 45, domFrac: Double = 0.8): Seq[String] = {
    val partial = exploded.select("col_id", "value").rdd.mapPartitions { rows =>
      val counts = mutable.HashMap.empty[(String, String), Long]
      rows.foreach { r =>
        // A null col_id never joins to its column total in SQL; skip it.
        if (!r.isNullAt(0)) {
          val key = (r.getString(0), asSparkString(generalize(r.getString(1))))
          counts(key) = counts.getOrElse(key, 0L) + 1L
        }
      }
      counts.iterator
    }.collect()

    val perCol = mutable.HashMap.empty[String, mutable.HashMap[String, Long]]
    partial.foreach { case ((col, pattern), n) =>
      val m = perCol.getOrElseUpdate(col, mutable.HashMap.empty)
      m(pattern) = m.getOrElse(pattern, 0L) + n
    }
    val nDominated = mutable.HashMap.empty[String, Long]
    perCol.valuesIterator.foreach { counts =>
      val total = counts.valuesIterator.sum
      counts.foreach { case (pattern, cnt) =>
        if (cnt >= total * domFrac && pattern != "<empty>")
          nDominated(pattern) = nDominated.getOrElse(pattern, 0L) + 1L
      }
    }
    nDominated.toSeq
      .map { case (pattern, n) => (pattern, n, UTF8String.fromString(pattern)) }
      .sortWith { (a, b) => a._2 > b._2 || (a._2 == b._2 && a._3.compareTo(b._3) < 0) }
      .take(topK)
      .map(_._1)
  }

  /** The string Spark stores for `s`: UTF-8 encoding replaces an unpaired
    * surrogate (a truncated pattern can end in one) with '?'.
    */
  private def asSparkString(s: String): String =
    if (s.exists(Character.isSurrogate)) UTF8String.fromString(s).toString else s
}

/** 0/1 distance to a fixed pattern (Eq 3). */
final class PatternEval(pattern: String) extends DomainEval {
  override val id: String = s"pat:$pattern"
  override def family: String = DomainEval.Pattern
  override def distance(v: String): Double =
    if (Patterns.generalize(v) == pattern) 0.0 else 1.0
}
