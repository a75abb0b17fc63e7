package repro.lp

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.perfbench.Recorded

import scala.util.{Failure, Success, Try}

object SimplexSpec {

  private val Inf = Double.PositiveInfinity

  /** The CSS-LP shape of `Selection`: x_0..x_{nx-1}, y_0..y_{ng-1}; a size
    * row, an FPR row, one coverage row per group, and a unit upper bound
    * per variable. Weights and FPRs repeat, so the LPs are degenerate.
    */
  val genCssLp: Gen[LpInstance] = for {
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
    val rows = Array(Array.tabulate(nx)(i => (i, 1.0)), fpr.toArray.zipWithIndex.map(_.swap)) ++ cover
    LpInstance(c, rows, Array(bSize.toDouble, bFpr) ++ Array.fill(ng)(0.0), Array.fill(n)(1.0))
  }

  /** General LPs with b >= 0: sparse rows of mixed sign, zero right-hand
    * sides, and no upper bounds, so some are unbounded.
    */
  val genLp: Gen[LpInstance] = for {
    n    <- Gen.choose(1, 12)
    m    <- Gen.choose(1, 12)
    c    <- Gen.listOfN(n, Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.choose(-1.0, 3.0)))
    rows <- Gen.listOfN(m, Gen.listOf(Gen.zip(Gen.choose(0, n - 1),
              Gen.frequency(2 -> Gen.oneOf(1.0, -1.0, 2.0), 3 -> Gen.choose(-1.0, 3.0)))))
    b    <- Gen.listOfN(m, Gen.frequency(1 -> Gen.const(0.0), 3 -> Gen.choose(0.0, 10.0)))
  } yield LpInstance(c.toArray, rows.map(_.toArray).toArray, b.toArray, Array.fill(n)(Inf))

  /** `genLp` with some upper bounds, zero and fractional ones included. */
  val genBoundedLp: Gen[LpInstance] = for {
    lp    <- genLp
    upper <- Gen.listOfN(lp.n, Gen.frequency(2 -> Gen.const(Inf), 1 -> Gen.oneOf(0.0, 1.0, 2.5),
               2 -> Gen.choose(0.0, 4.0)))
  } yield lp.copy(upper = upper.toArray)

  def close(a: Double, b: Double): Boolean = math.abs(a - b) <= 1e-9 * math.max(1.0, math.abs(b))

  private def isUnbounded(t: Try[Simplex.Result]): Boolean = t match {
    case Failure(e: IllegalStateException) => e.getMessage.contains("unbounded")
    case _ => false
  }

  /** `Simplex` returns a point that meets every row and bound, with the
    * objective `DenseSimplex` reaches wherever that one's point is
    * feasible; it throws only on an LP that `DenseSimplex` also finds
    * unbounded, and then says so.
    */
  def sound(lp: LpInstance): Prop = {
    val got = Try(lp.solve())
    val (rows, b) = lp.boundRows
    val dense = Try(DenseSimplex.maximize(lp.c, rows, b))
    val ok = got match {
      case Success(r) =>
        lp.worstViolation(r.x) <= 1e-9 &&
          close(r.objective, lp.c.indices.map(j => lp.c(j) * r.x(j)).sum) &&
          !isUnbounded(dense) &&
          dense.toOption.filter(d => lp.worstViolation(d.x) <= 1e-9).forall(d => close(r.objective, d.objective))
      case Failure(_) => isUnbounded(got) && isUnbounded(dense)
    }
    Prop(ok) :| s"$lp\nsimplex $got\ndense $dense"
  }

  /** With `maxIter` = k the solver returns what the unlimited solve returns
    * if that took at most k iterations, and otherwise throws saying so.
    */
  def capped(lp: LpInstance, k: Int): Prop = {
    val full = lp.solve()
    val ok = Try(lp.solve(k)) match {
      case Success(r) =>
        full.iterations <= k && r.iterations == full.iterations && r.objective == full.objective &&
          r.x.sameElements(full.x)
      case Failure(e: IllegalStateException) =>
        full.iterations > k && e.getMessage == s"simplex: no optimum after $k iterations (n=${lp.n} variables, m=${lp.m} rows)"
      case Failure(_) => false
    }
    Prop(ok) :| s"$lp\nmaxIter $k, unlimited: ${full.iterations} iterations"
  }

  private def bits(v: Double): Long = java.lang.Double.doubleToRawLongBits(v)

  /** None when `Simplex` takes `ReferenceSimplex`'s pivots: the same
    * iterations and bits of the objective and of every x_j, or the same
    * exception class and message; otherwise both outcomes.
    */
  def pivotMismatch(lp: LpInstance, maxIter: Int = 200000): Option[String] = {
    val got = Try(lp.solve(maxIter))
    val want = Try(ReferenceSimplex.maximize(lp.c, lp.rows, lp.b, lp.upper, maxIter))
    val same = (got, want) match {
      case (Success(g), Success(w)) =>
        g.iterations == w.iterations && bits(g.objective) == bits(w.objective) && g.x.map(bits).sameElements(w.x.map(bits))
      case (Failure(g), Failure(w)) => g.getClass == w.getClass && g.getMessage == w.getMessage
      case _ => false
    }
    // The first x_j whose bits differ, if both solved.
    val j = (for (g <- got; w <- want) yield g.x.indices.find(j => bits(g.x(j)) != bits(w.x(j)))).toOption.flatten
    def show(t: Try[Simplex.Result]) =
      t.map(r => s"${r.iterations} iterations, objective ${r.objective}" + j.fold("")(j => s", x_$j = ${r.x(j)}"))
    if (same) None else Some(s"simplex ${show(got)}; reference ${show(want)}")
  }

  def samePivots(lp: LpInstance, maxIter: Int = 200000): Prop = {
    val mismatch = pivotMismatch(lp, maxIter)
    Prop(mismatch.isEmpty) :| s"$lp\n${mismatch.getOrElse("")}"
  }

  def check(prop: Prop, seed: Long): Check.Result =
    Check.check(Check.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(seed)), prop)
}

class SimplexSpec extends AnyFunSuite {
  import SimplexSpec._

  private def approx(a: Double, b: Double, eps: Double = 1e-6): Boolean = math.abs(a - b) < eps
  private def free(n: Int): Array[Double] = Array.fill(n)(Double.PositiveInfinity)

  private val textbook = LpInstance( // max 3x + 5y s.t. x <= 4; 2y <= 12; 3x + 2y <= 18 → 36 at (2, 6)
    Array(3.0, 5.0), Array(Array((0, 1.0)), Array((1, 2.0)), Array((0, 3.0), (1, 2.0))),
    Array(4.0, 12.0, 18.0), free(2))

  test("trivial 1-var LP: max x s.t. x <= 3") {
    val r = Simplex.maximize(Array(1.0), Array(Array((0, 1.0))), Array(3.0), free(1))
    assert(approx(r.objective, 3.0))
    assert(approx(r.x(0), 3.0))
  }

  test("textbook 2-var LP") {
    val r = textbook.solve()
    assert(approx(r.objective, 36.0))
    assert(approx(r.x(0), 2.0))
    assert(approx(r.x(1), 6.0))
  }

  test("the textbook LP with x <= 4 as a bound instead of a row") {
    val r = Simplex.maximize(Array(3.0, 5.0), Array(Array((1, 2.0)), Array((0, 3.0), (1, 2.0))),
      Array(12.0, 18.0), Array(4.0, Double.PositiveInfinity))
    assert(approx(r.objective, 36.0) && approx(r.x(0), 2.0) && approx(r.x(1), 6.0))
  }

  test("a variable whose bound binds flips to it without a pivot") {
    // max x + y s.t. x + y <= 5, x <= 1, y <= 1: two bound flips, no pivot
    val r = Simplex.maximize(Array(1.0, 1.0), Array(Array((0, 1.0), (1, 1.0))), Array(5.0), Array(1.0, 1.0))
    assert(approx(r.objective, 2.0) && r.x.sameElements(Array(1.0, 1.0)) && r.iterations == 2)
  }

  test("degenerate LP with redundant constraints still solves") {
    val r = Simplex.maximize(
      Array(1.0, 1.0),
      Array(Array((0, 1.0), (1, 1.0)), Array((0, 1.0), (1, 1.0)), Array((0, 1.0))),
      Array(2.0, 2.0, 1.0), free(2))
    assert(approx(r.objective, 2.0))
  }

  test("zero objective returns zero") {
    val r = Simplex.maximize(Array(0.0, 0.0), Array(Array((0, 1.0))), Array(5.0), free(2))
    assert(approx(r.objective, 0.0))
  }

  test("unbounded LP throws") {
    intercept[IllegalStateException] {
      Simplex.maximize(Array(1.0), Array(Array((0, -1.0))), Array(1.0), free(1))
    }
  }

  test("an upper bound makes that LP bounded") {
    val r = Simplex.maximize(Array(1.0), Array(Array((0, -1.0))), Array(1.0), Array(2.5))
    assert(r.objective == 2.5 && r.x(0) == 2.5)
  }

  test("an LP that needs more than maxIter pivots throws") {
    // the textbook LP takes two pivots to reach its optimum
    val e = intercept[IllegalStateException](textbook.solve(maxIter = 1))
    assert(e.getMessage.contains("1 iterations") && e.getMessage.contains("n=2") && e.getMessage.contains("m=3"))
    // ... and is solved when allowed exactly those two
    val r = textbook.solve(maxIter = 2)
    assert(approx(r.objective, 36.0) && r.iterations == 2)
  }

  test("rejects negative rhs") {
    intercept[IllegalArgumentException] {
      Simplex.maximize(Array(1.0), Array(Array((0, 1.0))), Array(-1.0), free(1))
    }
  }

  test("a NaN objective coefficient fails the certificate") {
    val e = intercept[IllegalStateException] {
      Simplex.maximize(Array(Double.NaN, 1.0), Array(Array((0, 1.0), (1, 1.0))), Array(1.0), free(2))
    }
    assert(e.getMessage.contains("dual feasibility"), e.getMessage)
  }

  test("rejects negative or missing upper bounds") {
    intercept[IllegalArgumentException] {
      Simplex.maximize(Array(1.0), Array(Array((0, 1.0))), Array(1.0), Array(-1.0))
    }
    intercept[IllegalArgumentException] {
      Simplex.maximize(Array(1.0), Array(Array((0, 1.0))), Array(1.0), Array.empty[Double])
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
        Array((3, 1.0), (1, -1.0))),
      Array(1.0, 0.0, 0.0), Array.fill(4)(1.0))
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
    val r = Simplex.maximize(c, rows, b, free(3))
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
    val r = Simplex.maximize(c, rows, b, free(n))
    assert(r.objective > 0)
  }

  test("duplicate sparse entries in a row are summed") {
    val r = Simplex.maximize(Array(1.0), Array(Array((0, 0.5), (0, 0.5))), Array(2.0), free(1))
    assert(approx(r.objective, 2.0))
  }

  // Selection LPs written by `repro.core.CssLpDump`, with their certified
  // optima and iteration counts. The explicit-bound solver diverged on the
  // first, and on the reference ones returned points that break rows (seed
  // 42: x_32 = 1.000139). The perfbench LPs' optima are those `Recorded`
  // checks; a solver that pivots differently would move its digests.
  Seq(
    ("css-600-reseeded", 962.1476510067114, 1597),
    ("css-reference-seed42", 2104.8827838809084, 3032),
    ("css-reference-seed43", 2199.3408304498266, 5539),
    ("css-perfbench", Recorded.Expected.cssObjective, 466),
    ("fss-perfbench", Recorded.Expected.fssObjective, 293),
  ).foreach { case (name, optimum, iterations) =>
    test(s"dumped LP $name certifies within seconds") {
      val lp = LpInstance.resource(name)
      val t0 = System.nanoTime()
      val r = lp.solve()
      val seconds = (System.nanoTime() - t0) / 1e9
      assert(seconds < 30.0, s"$seconds s")
      assert(lp.worstViolation(r.x) <= 1e-9)
      assert(close(r.objective, optimum), s"objective ${r.objective}, recorded $optimum")
      assert(r.iterations == iterations)
    }

    test(s"dumped LP $name takes ReferenceSimplex's pivots") {
      pivotMismatch(LpInstance.resource(name)).foreach(fail(_))
    }
  }

  test("CSS-shaped LPs certify at DenseSimplex's objective") {
    val r = check(Prop.forAll(genCssLp)(sound), 31L)
    assert(r.passed, r.status)
  }

  test("general LPs certify or are unbounded for both solvers") {
    val r = check(Prop.forAll(genLp)(sound), 37L)
    assert(r.passed, r.status)
  }

  test("LPs with upper bounds certify or are unbounded for both") {
    val r = check(Prop.forAll(genBoundedLp)(sound), 43L)
    assert(r.passed, r.status)
  }

  test("maxIter: the unlimited result, or a throw naming the cap") {
    val r = check(Prop.forAll(genCssLp, Gen.choose(0, 6))(capped), 41L)
    assert(r.passed, r.status)
  }

  test("CSS-shaped LPs take ReferenceSimplex's pivots") {
    val r = check(Prop.forAll(genCssLp)(samePivots(_)), 47L)
    assert(r.passed, r.status)
  }

  test("general LPs take ReferenceSimplex's pivots or throw as it does") {
    val r = check(Prop.forAll(genLp)(samePivots(_)), 53L)
    assert(r.passed, r.status)
  }

  test("LPs with upper bounds take ReferenceSimplex's pivots or throw as it does") {
    val r = check(Prop.forAll(genBoundedLp)(samePivots(_)), 59L)
    assert(r.passed, r.status)
  }

  test("under maxIter, the pivots and the throw of ReferenceSimplex") {
    val r = check(Prop.forAll(genCssLp, Gen.choose(0, 6))(samePivots), 61L)
    assert(r.passed, r.status)
  }
}
