package repro.lp

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

import scala.util.Try

object SimplexSpec {
  final case class Lp(c: Array[Double], rows: Array[Array[(Int, Double)]], b: Array[Double]) {
    override def toString: String =
      s"Lp(c=${c.mkString(",")}; rows=${rows.map(_.mkString(" ")).mkString(" | ")}; b=${b.mkString(",")})"
  }

  /** The CSS-LP shape of `Selection`: x_0..x_{nx-1}, y_0..y_{ng-1}; a size
    * row, an FPR row, one coverage row per group and a unit bound per
    * variable. Weights and FPRs repeat, so the LPs are degenerate.
    */
  val genCssLp: Gen[Lp] = for {
    nx     <- Gen.choose(1, 14)
    ng     <- Gen.choose(1, 18)
    groups <- Gen.listOfN(ng, Gen.nonEmptyContainerOf[Set, Int](Gen.choose(0, nx - 1)))
    w      <- Gen.listOfN(ng, Gen.frequency(3 -> Gen.choose(1, 3), 1 -> Gen.choose(1, 40)))
    fpr    <- Gen.listOfN(nx, Gen.oneOf(Gen.oneOf(0.0, 0.01, 0.02), Gen.choose(0.0, 0.2)))
    bSize  <- Gen.choose(1, 6)
    bFpr   <- Gen.oneOf(0.01, 0.05, 0.1, 1.0)
  } yield {
    val n = nx + ng
    val c = Array.tabulate(n)(j => if (j < nx) 0.0 else w(j - nx).toDouble)
    val cover = groups.zipWithIndex.map { case (k, g) => k.toArray.sorted.map(i => (i, -1.0)) :+ (nx + g, 1.0) }
    val rows = Array(Array.tabulate(nx)(i => (i, 1.0)), fpr.toArray.zipWithIndex.map(_.swap)) ++
      cover ++ Array.tabulate(n)(j => Array((j, 1.0)))
    Lp(c, rows, Array(bSize.toDouble, bFpr) ++ Array.fill(ng)(0.0) ++ Array.fill(n)(1.0))
  }

  /** General LPs with b >= 0: sparse rows of mixed sign, zero right-hand
    * sides, and no upper bounds, so some are unbounded.
    */
  val genLp: Gen[Lp] = for {
    n    <- Gen.choose(1, 12)
    m    <- Gen.choose(1, 12)
    c    <- Gen.listOfN(n, Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.choose(-1.0, 3.0)))
    rows <- Gen.listOfN(m, Gen.listOf(Gen.zip(Gen.choose(0, n - 1),
              Gen.frequency(2 -> Gen.oneOf(1.0, -1.0, 2.0), 3 -> Gen.choose(-1.0, 3.0)))))
    b    <- Gen.listOfN(m, Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.choose(0.0, 10.0)))
  } yield Lp(c.toArray, rows.map(_.toArray).toArray, b.toArray)

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  /** The sparse and the dense solver agree: the same iteration count, the
    * same objective and x bits, or the same exception message.
    */
  def agree(lp: Lp, maxIter: Int = 200000): Prop = {
    val sparse = Try(Simplex.maximize(lp.c, lp.rows, lp.b, maxIter))
    val dense = Try(DenseSimplex.maximize(lp.c, lp.rows, lp.b, maxIter))
    val ok = (sparse.toEither, dense.toEither) match {
      case (Right(s), Right(d)) =>
        s.iterations == d.iterations && bits(s.objective) == bits(d.objective) &&
          s.x.length == d.x.length && s.x.indices.forall(j => bits(s.x(j)) == bits(d.x(j)))
      case (Left(s), Left(d)) => s.getClass == d.getClass && s.getMessage == d.getMessage
      case _                  => false
    }
    Prop(ok) :| s"$lp\nsparse $sparse\ndense $dense"
  }

  def check(prop: Prop, seed: Long): Check.Result =
    Check.check(Check.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(seed)), prop)
}

class SimplexSpec extends AnyFunSuite {
  import SimplexSpec._

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

  test("the sparse pivot equals the dense pivot on CSS-shaped LPs, bit for bit") {
    val r = check(Prop.forAll(genCssLp)(agree(_)), 31L)
    assert(r.passed, r.status)
  }

  test("the sparse pivot equals the dense pivot on general LPs, unbounded ones included") {
    val r = check(Prop.forAll(genLp)(agree(_)), 37L)
    assert(r.passed, r.status)
  }

  test("the sparse and the dense pivot fail alike when maxIter runs out") {
    val prop = Prop.forAll(genCssLp, Gen.choose(0, 6))((lp, maxIter) => agree(lp, maxIter))
    val r = check(prop, 41L)
    assert(r.passed, r.status)
  }
}
