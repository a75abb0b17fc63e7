package repro.corpus

import org.apache.spark.sql.{DataFrame, SparkSession, functions => F}

/** A single table column — the unit of both training corpora and benchmarks.
  *
  * @param colId     stable unique id
  * @param domainTag generating semantic domain (ground truth; read on the
  *                  training path by `SynCorpus.generate`, ROADMAP item 7)
  * @param values    the column's *distinct* values. This is the callers'
  *                  contract, and nothing enforces it: training and
  *                  `SdcModel.predictColumn` count a repeated value once per
  *                  occurrence (DESIGN §5, ROADMAP item 11)
  * @param errors    labelled erroneous values (ground truth; empty if clean)
  * @param nTotalVals total value count including duplicates (Table 3 stats)
  */
final case class TableColumn(
    colId: String,
    domainTag: String,
    values: Seq[String],
    errors: Seq[String],
    nTotalVals: Long,
)

/** Row views of column collections.
  *
  * Training reads a corpus on the driver as (col_id, value) rows. Table 3's
  * statistics read it as a DataFrame with schema (col_id, domain_tag,
  * values: array<string>, errors: array<string>, n_total_vals).
  */
object ColumnStore {

  /** (col_id, value) rows on the driver, as `explode` yields them. */
  def rows(cols: Seq[TableColumn]): Iterator[(String, String)] =
    cols.iterator.flatMap(c => c.values.iterator.map(v => (c.colId, v)))

  def toDf(spark: SparkSession, cols: Seq[TableColumn]): DataFrame = {
    import spark.implicits._
    cols.toDF()
      .select(
        F.col("colId").as("col_id"),
        F.col("domainTag").as("domain_tag"),
        F.col("values"),
        F.col("errors"),
        F.col("nTotalVals").as("n_total_vals"),
      )
  }

  /** (col_id, value) rows — one per distinct value per column. */
  def explode(df: DataFrame): DataFrame =
    df.select(F.col("col_id"), F.explode(F.col("values")).as("value"))

  /** Table-3-style statistics: (#cols, mean/median #vals, mean/median #distinct). */
  final case class CorpusStats(
      nColumns: Long,
      meanVals: Double,
      medianVals: Double,
      meanDistinct: Double,
      medianDistinct: Double,
  )

  def stats(df: DataFrame): CorpusStats = {
    val agg = df
      .select(
        F.count(F.lit(1)).as("n"),
        F.avg(F.col("n_total_vals")).as("mean_vals"),
        F.percentile_approx(F.col("n_total_vals"), F.lit(0.5), F.lit(10000)).as("med_vals"),
        F.avg(F.size(F.col("values"))).as("mean_dist"),
        F.percentile_approx(F.size(F.col("values")), F.lit(0.5), F.lit(10000)).as("med_dist"),
      )
      .collect()(0)
    CorpusStats(
      nColumns = agg.getAs[Long]("n"),
      meanVals = agg.getAs[Double]("mean_vals"),
      medianVals = agg.getAs[Number]("med_vals").doubleValue(),
      meanDistinct = agg.getAs[Double]("mean_dist"),
      medianDistinct = agg.getAs[Number]("med_dist").doubleValue(),
    )
  }
}
