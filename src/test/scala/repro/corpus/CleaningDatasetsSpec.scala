package repro.corpus

import org.scalatest.funsuite.AnyFunSuite

class CleaningDatasetsSpec extends AnyFunSuite {

  private val allColumns = CleaningDatasets.datasetNames.flatMap(CleaningDatasets.dataset)

  test("all nine datasets exist") {
    assert(CleaningDatasets.datasetNames.size == 9)
    CleaningDatasets.datasetNames.foreach(n => assert(CleaningDatasets.dataset(n).nonEmpty, n))
  }

  test("unknown dataset name is rejected") {
    intercept[IllegalArgumentException](CleaningDatasets.dataset("nope"))
  }

  test("per-dataset categorical column counts match Table 9") {
    val expected = Map(
      "adult" -> 9, "beers" -> 6, "flights" -> 6, "food" -> 10, "hospital" -> 16,
      "movies" -> 14, "rayyan" -> 8, "soccer" -> 8, "tax" -> 8)
    expected.foreach { case (ds, n) =>
      assert(CleaningDatasets.dataset(ds).size == n, s"$ds: ${CleaningDatasets.dataset(ds).size}")
    }
    assert(allColumns.size == 85) // Table 9's 9-dataset total
  }

  test("columns covered by existing ground-truth roughly match Table 9's 36") {
    val n = allColumns.count(_.coveredByExistingGt)
    assert(n >= 30 && n <= 42, s"covered-by-GT count $n")
  }

  test("error values are members of their columns") {
    allColumns.foreach { c =>
      c.allErrors.foreach(e => assert(c.values.contains(e), s"${c.colId}: $e"))
    }
  }

  test("known and missed errors are disjoint") {
    allColumns.foreach { c =>
      assert(c.knownErrors.intersect(c.missedErrors).isEmpty, c.colId)
    }
  }

  test("Table 11's flagship missed errors exist") {
    val hospital = CleaningDatasets.dataset("hospital").find(_.column == "sample").get
    assert(hospital.missedErrors.contains("empty"))
    val food = CleaningDatasets.dataset("food").find(_.column == "facility_type").get
    assert(food.missedErrors.contains("childern's service facility"))
    val rayyan = CleaningDatasets.dataset("rayyan").find(_.column == "article_created_at").get
    assert(rayyan.missedErrors.contains("nan"))
  }

  test("movies carries the bulk of cell-level errors (Table 9's 161 TPs)") {
    val n = CleaningDatasets.dataset("movies").map(_.allErrors.size).sum
    assert(n > 100, s"movies errors $n")
  }

  test("Table 10's state-code typos are present in beers/tax") {
    val beers = CleaningDatasets.dataset("beers").find(_.column == "state").get
    assert(beers.knownErrors.contains("ax") && beers.knownErrors.contains("xk"))
    val tax = CleaningDatasets.dataset("tax").find(_.column == "state").get
    assert(tax.knownErrors.contains("ax"))
  }

  test("column ids are globally unique") {
    val ids = allColumns.map(_.colId)
    assert(ids.distinct.size == ids.size)
  }

  test("flights has no new-SDC errors (Table 9 shows 0 coverage there)") {
    assert(CleaningDatasets.dataset("flights").forall(_.allErrors.isEmpty))
  }

  test("rayyan date column uses two-digit years (1/1/71 style)") {
    val c = CleaningDatasets.dataset("rayyan").find(_.column == "article_created_at").get
    val dates = c.values.filterNot(c.allErrors.contains)
    assert(dates.forall(_.matches("\\d{1,2}/\\d{1,2}/\\d{2}")), dates.take(3))
  }
}
