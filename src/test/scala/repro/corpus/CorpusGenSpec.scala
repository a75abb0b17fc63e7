package repro.corpus

import repro.{Oracle, SparkSpec}
import repro.domains.Vocab

class CorpusGenSpec extends SparkSpec {

  private val profile = CorpusGen.relationalProfile(nCols = 200)
  private lazy val corpus = CorpusGen.generate(profile)

  /** The columns of a `ColumnStore.toDf` DataFrame. */
  private def fromDf(df: org.apache.spark.sql.DataFrame): Seq[TableColumn] =
    df.collect().toSeq.map { r =>
      TableColumn(
        colId = r.getAs[String]("col_id"),
        domainTag = r.getAs[String]("domain_tag"),
        // Spark hands back mutable ArraySeq; normalise to immutable Vector.
        values = r.getSeq[String](r.fieldIndex("values")).toVector,
        errors = r.getSeq[String](r.fieldIndex("errors")).toVector,
        nTotalVals = r.getAs[Long]("n_total_vals"),
      )
    }

  test("corpus has the requested number of columns with unique ids") {
    assert(corpus.size == 200)
    assert(corpus.map(_.colId).distinct.size == 200)
  }

  test("corpus generation is deterministic") {
    val again = CorpusGen.generate(profile)
    assert(corpus.map(_.values) == again.map(_.values))
  }

  test("column values are distinct within a column") {
    corpus.foreach(c => assert(c.values.distinct.size == c.values.size, c.colId))
  }

  test("every domain tag resolves to a built-in domain") {
    corpus.foreach(c => assert(Vocab.byName.contains(c.domainTag), c.domainTag))
  }

  test("corpus is mostly clean (~98%, paper Sec 5.2)") {
    val dirtyFrac = corpus.count(_.errors.nonEmpty).toDouble / corpus.size
    assert(dirtyFrac < 0.05, s"dirtyFrac $dirtyFrac")
  }

  test("labelled corpus errors are real members of their columns") {
    corpus.filter(_.errors.nonEmpty).foreach { c =>
      c.errors.foreach(e => assert(c.values.contains(e)))
    }
  }

  test("spreadsheet profile is shorter and noisier than relational (Table 3/6 contrast)") {
    val rel = corpus
    val spr = CorpusGen.generate(CorpusGen.spreadsheetProfile(nCols = 200))
    val relMean = rel.map(_.values.size).sum.toDouble / rel.size
    val sprMean = spr.map(_.values.size).sum.toDouble / spr.size
    assert(sprMean < relMean, s"spreadsheet $sprMean vs relational $relMean")
    assert(spr.count(_.errors.nonEmpty) >= rel.count(_.errors.nonEmpty))
  }

  test("relational columns have high duplication factors (Table 3)") {
    val ratios = corpus.map(c => c.nTotalVals.toDouble / c.values.size)
    assert(ratios.sum / ratios.size > 20.0)
  }

  test("clean columns draw only valid domain values") {
    corpus.filterNot(_.errors.nonEmpty).take(50).foreach { c =>
      Vocab.byName(c.domainTag) match {
        case v: repro.domains.VocabDomain =>
          c.values.foreach(x => assert(v.all.contains(x.toLowerCase), s"${c.colId}: $x"))
        case _ => // generator domains: shape checked in VocabSpec
      }
    }
  }

  test("ColumnStore round-trips through DataFrames") {
    val df = ColumnStore.toDf(spark, corpus.take(20))
    val back = fromDf(df).sortBy(_.colId)
    assert(back == corpus.take(20).sortBy(_.colId))
  }

  test("explode produces one row per (column, value)") {
    val sample = corpus.take(10)
    val n = ColumnStore.explode(ColumnStore.toDf(spark, sample)).count()
    assert(n == sample.map(_.values.size).sum)
  }

  test("corpus statistics agree with DuckDB (oracle)") {
    import org.apache.spark.sql.functions._
    val df = ColumnStore.toDf(spark, corpus.take(50))
      .select(col("col_id"), col("n_total_vals"), size(col("values")).as("n_distinct"))
    val agg = df.select(
      count(lit(1)).cast("long").as("n"),
      avg(col("n_total_vals")).as("mean_vals"),
      avg(col("n_distinct")).as("mean_distinct"))
    Oracle.assertEquivalent(
      agg,
      "SELECT COUNT(*) AS n, AVG(CAST(n_total_vals AS DOUBLE)) AS mean_vals, " +
        "AVG(CAST(n_distinct AS DOUBLE)) AS mean_distinct FROM cols",
      "cols" -> df)
  }

  test("CorpusStats medians and means are consistent") {
    val st = ColumnStore.stats(ColumnStore.toDf(spark, corpus))
    assert(st.nColumns == 200)
    assert(st.meanDistinct > 0 && st.medianDistinct > 0)
    assert(st.meanVals >= st.meanDistinct)
  }
}
