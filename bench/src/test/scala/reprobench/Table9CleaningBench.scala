package reprobench

import repro.experiments.Tables

/** Reproduces paper Table 9 (plus the Table 10/11 listings): applying the
  * learned SDCs to the nine existing data-cleaning benchmarks.
  */
class Table9CleaningBench extends BenchBase {

  private lazy val result = Tables.runTable9()

  test("Table 9 renders and persists") {
    emit("table9", result.rendered)
    assert(result.perDataset.size == 9)
  }

  test("SDCs cover a meaningful number of columns (paper: 17/85)") {
    val covered = result.perDataset.map(_.nCoveredBySdc).sum
    assert(covered >= 5, s"only $covered columns covered")
  }

  test("cell-level detections exist and movies dominates (paper: 161 of 183)") {
    val total = result.perDataset.map(_.cellDetections).sum
    assert(total > 20, s"only $total detections")
    val movies = result.perDataset.find(_.dataset == "movies").get
    assert(movies.cellDetections > total / 3, s"movies ${movies.cellDetections} of $total")
  }

  test("adjusted precision exceeds strict precision (missed-error effect, paper: 95% -> 97%)") {
    val det = result.perDataset.map(_.cellDetections).sum
    val strict = result.perDataset.map(_.cellStrictCorrect).sum
    val adj = result.perDataset.map(_.cellAdjustedCorrect).sum
    assert(adj >= strict)
    assert(adj.toDouble / det > 0.7, s"adjusted precision ${adj.toDouble / det}")
  }

  test("SDCs uncover errors missed by existing ground truth (Table 11)") {
    assert(result.newErrorsFound.nonEmpty, "expected Table-11-style discoveries")
  }

  test("discovered SDC listing covers multiple datasets (Table 10)") {
    val datasets = result.discoveredSdcs.map(_.split("\\s+").head).distinct
    assert(datasets.size >= 3, s"datasets with discovered SDCs: $datasets")
  }

  test("flights gets no cell detections (paper row: 0)") {
    assert(result.perDataset.find(_.dataset == "flights").get.cellDetections == 0)
  }
}
