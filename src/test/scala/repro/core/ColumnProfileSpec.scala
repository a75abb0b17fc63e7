package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class ColumnProfileSpec extends AnyFunSuite {

  private val grid = Seq(0.0, 0.5, 1.0, 2.0, 4.0)

  // Distances land on the grid points as well as between and beyond them,
  // so every boundary (d == edge) is exercised.
  private val genDists: Gen[Array[Double]] =
    Gen.listOf(Gen.oneOf(grid ++ Seq(0.25, 0.75, 1.5, 3.0, 5.0))).map(_.toArray)
  private val genEdges: Gen[Array[Double]] =
    Gen.atLeastOne(grid).map(_.toArray.sorted)
  private val genM: Gen[Double] =
    Gen.oneOf(Gen.choose(0.01, 1.0), Gen.oneOf(0.5, 0.6, 0.75, 0.9, 0.95, 1.0))

  test("covers and triggers equal the brute-force Definition 2 predicates") {
    val prop = Prop.forAll(genDists, genEdges, genM) { (dists, edges, m) =>
      val p = new ColumnProfile(dists, edges)
      val n = dists.length
      edges.indices.forall { i =>
        val e = edges(i)
        p.covers(i, m) == (n > 0 && dists.count(_ <= e).toDouble / n >= m) &&
        p.triggers(i) == dists.exists(_ > e)
      }
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(42L)), prop)
    assert(result.passed, result.status)
  }

  test("coversWith equals covers of the column with the extra distance appended") {
    val special = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -1.0)
    val genD: Gen[Double] = Gen.frequency(
      4 -> Gen.oneOf(grid ++ Seq(0.25, 0.75, 1.5, 3.0, 5.0)), 2 -> Gen.oneOf(special), 1 -> Gen.choose(-1.0, 6.0))
    val genBase: Gen[Array[Double]] =
      Gen.frequency(1 -> Gen.const(Array.emptyDoubleArray), 6 -> Gen.listOf(genD).map(_.toArray))
    val prop = Prop.forAll(genBase, genEdges, genM, genD) { (dists, edges, m, d) =>
      val base = new ColumnProfile(dists, edges)
      val full = new ColumnProfile(dists :+ d, edges)
      edges.indices.forall(i => base.coversWith(d, i, m) == full.covers(i, m))
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(1000).withInitialSeed(Seed(43L)), prop)
    assert(result.passed, result.status)
  }

  test("coversWith on an empty base decides the extra value alone") {
    val empty = new ColumnProfile(Array.emptyDoubleArray, Array(0.5, 1.0))
    assert(empty.coversWith(0.5, 0, 1.0))   // on the edge counts as within
    assert(!empty.coversWith(0.75, 0, 0.5))
    assert(empty.coversWith(0.75, 1, 1.0))
  }
}
