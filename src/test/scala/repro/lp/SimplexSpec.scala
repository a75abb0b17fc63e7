package repro.lp

import org.scalatest.funsuite.AnyFunSuite

class SimplexSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, eps: Double = 1e-6): Boolean = math.abs(a - b) < eps

  test("trivial 1-var LP: max x s.t. x <= 3") {
    val r = Simplex.maximize(Array(1.0), Array(Array((0, 1.0))), Array(3.0))
    assert(approx(r.objective, 3.0))
    assert(approx(r.x(0), 3.0))
  }

  test("textbook 2-var LP") {
    // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18 → opt 36 at (2, 6)
    val r = Simplex.maximize(
      Array(3.0, 5.0),
      Array(Array((0, 1.0)), Array((1, 2.0)), Array((0, 3.0), (1, 2.0))),
      Array(4.0, 12.0, 18.0))
    assert(approx(r.objective, 36.0))
    assert(approx(r.x(0), 2.0))
    assert(approx(r.x(1), 6.0))
  }

  test("degenerate LP with redundant constraints still solves") {
    val r = Simplex.maximize(
      Array(1.0, 1.0),
      Array(Array((0, 1.0), (1, 1.0)), Array((0, 1.0), (1, 1.0)), Array((0, 1.0))),
      Array(2.0, 2.0, 1.0))
    assert(approx(r.objective, 2.0))
  }

  test("zero objective returns zero") {
    val r = Simplex.maximize(Array(0.0, 0.0), Array(Array((0, 1.0))), Array(5.0))
    assert(approx(r.objective, 0.0))
  }

  test("unbounded LP throws") {
    intercept[IllegalStateException] {
      Simplex.maximize(Array(1.0), Array(Array((0, -1.0))), Array(1.0))
    }
  }

  test("an LP that needs more than maxIter pivots throws") {
    // the textbook LP takes two pivots to reach its optimum
    val e = intercept[IllegalStateException] {
      Simplex.maximize(
        Array(3.0, 5.0),
        Array(Array((0, 1.0)), Array((1, 2.0)), Array((0, 3.0), (1, 2.0))),
        Array(4.0, 12.0, 18.0),
        maxIter = 1)
    }
    assert(e.getMessage.contains("1 iterations") && e.getMessage.contains("n=2") && e.getMessage.contains("m=3"))
    // ... and is solved when allowed exactly those two
    val r = Simplex.maximize(
      Array(3.0, 5.0),
      Array(Array((0, 1.0)), Array((1, 2.0)), Array((0, 3.0), (1, 2.0))),
      Array(4.0, 12.0, 18.0),
      maxIter = 2)
    assert(approx(r.objective, 36.0) && r.iterations == 2)
  }

  test("rejects negative rhs") {
    intercept[IllegalArgumentException] {
      Simplex.maximize(Array(1.0), Array(Array((0, 1.0))), Array(-1.0))
    }
  }

  test("fractional optimum of an LP-relaxed coverage instance") {
    // max y1 + y2 s.t. x1+x2 <= 1; y1 <= x1; y2 <= x2; all <= 1
    // → x1 = x2 = 0.5, objective 1.0 (fractional, as LP relaxation should)
    val r = Simplex.maximize(
      Array(0.0, 0.0, 1.0, 1.0),
      Array(
        Array((0, 1.0), (1, 1.0)),
        Array((2, 1.0), (0, -1.0)),
        Array((3, 1.0), (1, -1.0)),
        Array((0, 1.0)), Array((1, 1.0)), Array((2, 1.0)), Array((3, 1.0))),
      Array(1.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0))
    assert(approx(r.objective, 1.0))
    assert(approx(r.x(0) + r.x(1), 1.0))
  }

  test("solution respects constraints") {
    val c = Array(2.0, 3.0, 1.0)
    val rows = Array(
      Array((0, 1.0), (1, 2.0), (2, 1.0)),
      Array((0, 2.0), (1, 1.0)),
      Array((1, 1.0), (2, 3.0)))
    val b = Array(10.0, 8.0, 9.0)
    val r = Simplex.maximize(c, rows, b)
    rows.zip(b).foreach { case (row, bi) =>
      val lhs = row.map { case (j, v) => v * r.x(j) }.sum
      assert(lhs <= bi + 1e-6, s"violated: $lhs > $bi")
    }
    assert(r.x.forall(_ >= -1e-9))
  }

  test("moderate random LP solves within the iteration budget") {
    val n = 60; val m = 40
    val rng = new scala.util.Random(7)
    val c = Array.fill(n)(rng.nextDouble())
    val rows = Array.tabulate(m)(_ => Array.tabulate(n)(j => (j, rng.nextDouble() * 0.2)))
    val b = Array.fill(m)(1.0 + rng.nextDouble())
    val r = Simplex.maximize(c, rows, b)
    assert(r.objective > 0)
  }

  test("duplicate sparse entries in a row are summed") {
    val r = Simplex.maximize(Array(1.0), Array(Array((0, 0.5), (0, 0.5))), Array(2.0))
    assert(approx(r.objective, 2.0))
  }
}
