package repro.dists

import org.apache.spark.sql.{DataFrame, functions => F}

/** The pattern miner as a Spark SQL aggregation: per-(column, pattern)
  * counts, joined to column totals, filtered to dominant patterns (at least
  * 80% of the column), counted per pattern and ordered by (nDominated desc,
  * pattern). `Patterns.minePatterns` must return the same ordered list.
  */
object SqlPatternMiner {

  def minePatterns(exploded: DataFrame, topK: Int): Seq[String] = {
    import exploded.sparkSession.implicits._
    val genUdf = F.udf((v: String) => Patterns.generalize(v))
    val perColPattern = exploded
      .select($"col_id", genUdf($"value").as("pattern"))
      .groupBy($"col_id", $"pattern")
      .agg(F.count(F.lit(1)).as("cnt"))
    val colSizes = perColPattern.groupBy($"col_id").agg(F.sum($"cnt").as("total"))
    perColPattern
      .join(colSizes, "col_id")
      .where($"cnt" >= $"total" * 0.8)
      .groupBy($"pattern")
      .agg(F.count(F.lit(1)).as("nDominated"))
      .where($"pattern" =!= "<empty>")
      .orderBy(F.desc("nDominated"), $"pattern")
      .limit(topK)
      .select($"pattern")
      .as[String]
      .collect()
      .toSeq
  }
}
