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
}
