package reprobench

import repro.SparkSpec
import repro.experiments.{Experiments, Tables}

/** Reproduces paper Table 3: training-corpora statistics, computed in Spark. */
class Table3CorporaStatsBench extends BenchBase with SparkSpec {

  private lazy val result = Tables.runTable3(spark)

  test("Table 3 renders and persists") {
    emit("table3", result.rendered)
    assert(result.rows.size == 3)
  }

  test("each corpus has the configured column count") {
    result.rows.values.foreach(s => assert(s.nColumns == Experiments.CorpusCols))
  }

  test("relational columns carry far more values than spreadsheet columns (paper's 7253 vs 560)") {
    val rel = result.rows("relational-tables")
    val spr = result.rows("spreadsheet-tables")
    assert(rel.meanVals > spr.meanVals * 3, s"${rel.meanVals} vs ${spr.meanVals}")
  }

  test("distinct-value counts are far below total counts (duplication, as in paper)") {
    result.rows.foreach { case (n, s) =>
      assert(s.meanDistinct < s.meanVals, n)
    }
  }

  test("spreadsheet columns have the fewest distinct values (paper: 57 vs 96/101)") {
    val spr = result.rows("spreadsheet-tables").meanDistinct
    assert(spr < result.rows("relational-tables").meanDistinct)
    assert(spr < result.rows("tablib").meanDistinct)
  }
}
