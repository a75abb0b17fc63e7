package reprobench

import repro.experiments.Tables

/** Reproduces paper Table 5: Fine-Select quality and per-column latency as
  * the constraint-count budget B_size varies (All-Constraints as reference).
  */
class Table5SizeBudgetBench extends BenchBase {

  private lazy val result = Tables.runTable5()

  test("Table 5 renders and persists") {
    emit("table5", result.rendered)
    assert(result.rows.size == 5) // 100, 200, 500, 1000, All-Constraints
  }

  test("All-Constraints is substantially slower than Fine-Select@500 (paper: 7-10x)") {
    val all = result.rows.last
    val b500 = result.rows.find(_.bSize == "500").get
    assert(all.secPerCol > b500.secPerCol * 2,
      f"all=${all.secPerCol}%.4f vs b500=${b500.secPerCol}%.4f")
  }

  test("latency grows with the budget") {
    val lat = result.rows.init.map(_.secPerCol) // the 4 numeric budgets
    assert(lat.head < lat.last * 1.2, s"latency not increasing-ish: $lat")
  }

  test("quality at 500 rules is comparable to All-Constraints (within 0.1 AUC)") {
    val all = result.rows.last
    val b500 = result.rows.find(_.bSize == "500").get
    assert(b500.stAuc >= all.stAuc - 0.1, s"${b500.stAuc} vs ${all.stAuc}")
    assert(b500.rtAuc >= all.rtAuc - 0.1, s"${b500.rtAuc} vs ${all.rtAuc}")
  }

  test("larger budgets do not hurt quality much (monotone-ish trend)") {
    val b100 = result.rows.find(_.bSize == "100").get
    val b1000 = result.rows.find(_.bSize == "1000").get
    assert(b1000.stAuc >= b100.stAuc - 0.05)
  }
}
