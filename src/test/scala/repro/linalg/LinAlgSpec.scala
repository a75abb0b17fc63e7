package repro.linalg

import org.scalacheck.{Arbitrary, Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.linalg.LinAlg._

class LinAlgSpec extends AnyFunSuite {

  private def approx(a: Double, b: Double, eps: Double = 1e-9): Boolean = math.abs(a - b) < eps

  test("dot product") {
    assert(approx(dot(Array(1.0, 2.0, 3.0), Array(4.0, 5.0, 6.0)), 32.0))
  }

  test("dot rejects dimension mismatch") {
    intercept[IllegalArgumentException](dot(Array(1.0), Array(1.0, 2.0)))
  }

  test("sub subtracts elementwise") {
    assert(sub(Array(1.0, 2.0), Array(0.5, -1.0)).toSeq == Seq(0.5, 3.0))
  }

  test("euclidean distance is symmetric and zero on self") {
    val a = Array(1.0, 2.0, 3.0); val b = Array(4.0, 0.0, 1.0)
    assert(approx(euclidean(a, b), euclidean(b, a)))
    assert(approx(euclidean(a, a), 0.0))
  }

  test("euclidean is bit-equal to sqrt(dot(d, d)), d = sub(a, b)") {
    val genDouble = Gen.oneOf(Gen.choose(-10.0, 10.0), Gen.choose(-1e9, 1e9), Arbitrary.arbitrary[Double])
    val genPair = Gen.choose(0, 32).flatMap { d =>
      Gen.zip(Gen.listOfN(d, genDouble).map(_.toArray), Gen.listOfN(d, genDouble).map(_.toArray))
    }
    val prop = Prop.forAll(genPair) { case (a, b) =>
      val d = sub(a, b)
      java.lang.Double.doubleToLongBits(euclidean(a, b)) == java.lang.Double.doubleToLongBits(math.sqrt(dot(d, d)))
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(1000).withInitialSeed(Seed(3L)), prop)
    assert(result.passed, result.status)
  }

  test("euclidean rejects dimension mismatch") {
    intercept[IllegalArgumentException](euclidean(Array(1.0), Array(1.0, 2.0)))
  }

  test("mean of vectors") {
    val m = mean(Seq(Array(0.0, 2.0), Array(2.0, 4.0)))
    assert(m.toSeq == Seq(1.0, 3.0))
  }

  test("covariance of axis-aligned cloud is diagonal") {
    val rows = (0 until 400).map { i =>
      Array(math.sin(i * 1.7) * 2.0, math.cos(i * 2.3) * 0.5)
    }
    val c = covariance(rows)
    assert(math.abs(c(0)(1)) < 0.2)
    assert(c(0)(0) > c(1)(1))
  }

  test("symmetricEigen recovers known eigenvalues of a diagonal matrix") {
    val m = Array(Array(3.0, 0.0), Array(0.0, 1.0))
    val (evals, _) = symmetricEigen(m)
    assert(approx(evals(0), 3.0, 1e-8))
    assert(approx(evals(1), 1.0, 1e-8))
  }

  test("symmetricEigen of [[2,1],[1,2]] gives 3 and 1") {
    val (evals, evecs) = symmetricEigen(Array(Array(2.0, 1.0), Array(1.0, 2.0)))
    assert(approx(evals(0), 3.0, 1e-8))
    assert(approx(evals(1), 1.0, 1e-8))
    // top eigenvector ∝ (1,1)/sqrt(2)
    assert(approx(math.abs(evecs(0)(0)), math.abs(evecs(1)(0)), 1e-6))
  }

  test("symmetricEigen satisfies A v = λ v") {
    val a = Array(
      Array(4.0, 1.0, 0.5),
      Array(1.0, 3.0, 0.2),
      Array(0.5, 0.2, 2.0))
    val (evals, evecs) = symmetricEigen(a)
    for (k <- 0 until 3) {
      val v = Array.tabulate(3)(i => evecs(i)(k))
      val av = Array.tabulate(3)(i => dot(a(i), v))
      val lv = scale(v, evals(k))
      assert(euclidean(av, lv) < 1e-6, s"eigenpair $k")
    }
  }

  test("eigenvalues sorted descending") {
    val a = Array(Array(1.0, 0.2, 0.0), Array(0.2, 5.0, 0.1), Array(0.0, 0.1, 3.0))
    val (evals, _) = symmetricEigen(a)
    assert(evals(0) >= evals(1) && evals(1) >= evals(2))
  }
}
