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
      val p = PerValueReference.profile(dists, edges)
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

  test("coveredMs is the number of ascending ms that covers holds on") {
    val prop = Prop.forAll(genDists, genEdges, Gen.listOf(genM)) { (dists, edges, ms) =>
      val p = PerValueReference.profile(dists, edges)
      val sorted = ms.distinct.sorted.toArray
      edges.indices.forall(i => p.coveredMs(i, sorted) == sorted.count(p.covers(i, _)))
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(43L)), prop)
    assert(result.passed, result.status)
  }

  test("coversWith equals covers of the column with the extra distance appended") {
    val special = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -1.0)
    val genD: Gen[Double] = Gen.frequency(
      4 -> Gen.oneOf(grid ++ Seq(0.25, 0.75, 1.5, 3.0, 5.0)), 2 -> Gen.oneOf(special), 1 -> Gen.choose(-1.0, 6.0))
    val genBase: Gen[Array[Double]] =
      Gen.frequency(1 -> Gen.const(Array.emptyDoubleArray), 6 -> Gen.listOf(genD).map(_.toArray))
    val prop = Prop.forAll(genBase, genEdges, genM, genD) { (dists, edges, m, d) =>
      val base = PerValueReference.profile(dists, edges)
      val full = PerValueReference.profile(dists :+ d, edges)
      edges.indices.forall(i => base.coversWith(ColumnProfile.bucket(d, edges), i, m) == full.covers(i, m))
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(1000).withInitialSeed(Seed(43L)), prop)
    assert(result.passed, result.status)
  }

  test("coversWith on an empty base decides the extra value alone") {
    val edges = Array(0.5, 1.0)
    val empty = PerValueReference.profile(Array.emptyDoubleArray, edges)
    def code(d: Double) = ColumnProfile.bucket(d, edges)
    assert(empty.coversWith(code(0.5), 0, 1.0))   // on the edge counts as within
    assert(!empty.coversWith(code(0.75), 0, 0.5))
    assert(empty.coversWith(code(0.75), 1, 1.0))
  }

  test("edge-bucket codes decide every predicate as the distances do") {
    val specials = Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity, -0.0, -1.0)
    // Up to 8 sorted, distinct edges, as CandidateGen.thresholds gives.
    val genEdges8: Gen[Array[Double]] =
      Gen.atLeastOne(Seq(0.0, 0.15, 0.5, 0.8, 1.0, 1.6, 2.0, 4.0, 6.0, 8.0))
        .map(_.take(8).toArray.sorted)
    val genCase = for {
      edges <- genEdges8
      genD = Gen.frequency(3 -> Gen.oneOf(edges.toSeq), 2 -> Gen.oneOf(specials), 2 -> Gen.choose(-1.0, 9.0))
      dict  <- Gen.nonEmptyListOf(genD).map(_.toArray)  // distance of each value id
      ids   <- Gen.listOf(Gen.choose(0, dict.length - 1)).map(_.toArray)
      extra <- Gen.choose(0, dict.length - 1)
      m     <- genM
    } yield (edges, dict, ids, extra, m)
    val prop = Prop.forAll(genCase) { case (edges, dict, ids, extra, m) =>
      val codes = dict.map(d => ColumnProfile.bucket(d, edges).toByte)
      val byCode = ColumnProfile.fromCodes(codes, ids, edges.length)
      val dists = ids.map(dict)
      val byDist = PerValueReference.profile(dists, edges)
      val withExtra = PerValueReference.profile(dists :+ dict(extra), edges)
      dict.forall(d => edges.indices.forall(k => (d > edges(k)) == (ColumnProfile.bucket(d, edges) > k))) &&
      byCode.size == byDist.size &&
      edges.indices.forall { i =>
        byCode.covers(i, m) == byDist.covers(i, m) &&
        byCode.triggers(i) == byDist.triggers(i) &&
        byCode.coversWith(codes(extra), i, m) == withExtra.covers(i, m) &&
        byCode.coversWith(codes(extra), i, m) == byDist.coversWith(ColumnProfile.bucket(dict(extra), edges), i, m)
      }
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(1000).withInitialSeed(Seed(44L)), prop)
    assert(result.passed, result.status)
  }

  test("NaN, infinities, -0.0 and values on an edge get the expected bucket") {
    val edges = Array(0.0, 0.5, 1.0)
    assert(ColumnProfile.bucket(Double.NaN, edges) == 0)
    assert(ColumnProfile.bucket(Double.NegativeInfinity, edges) == 0)
    assert(ColumnProfile.bucket(-1.0, edges) == 0)
    assert(ColumnProfile.bucket(-0.0, edges) == 0)
    assert(edges.indices.forall(k => ColumnProfile.bucket(edges(k), edges) == k))
    assert(ColumnProfile.bucket(Double.PositiveInfinity, edges) == edges.length)
    assert(ColumnProfile.bucket(0.75, Array.emptyDoubleArray) == 0)
  }
}
