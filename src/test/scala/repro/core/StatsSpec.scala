package repro.core

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  /** Appendix B.1 Eq 19: upper bound of a rule's confidence given only its
    * coverage count (assumes zero false triggers); the reference that
    * `Stats.minCoverageFor` inverts.
    */
  private def confidenceUpperBound(nCovered: Long): Double = {
    val z2 = Stats.Z95 * Stats.Z95
    1.0 - z2 / (nCovered + z2)
  }

  test("cohensH of identical proportions is 0") {
    assert(Stats.cohensH(0.3, 0.3) == 0.0)
  }

  test("cohensH reproduces the paper's Example 5: h(r4) = 2.01") {
    // ρ(r4) = 10/1000 = 0.01, ρ̄(r4) = 160000/200000 = 0.8
    val h = Stats.cohensH(0.8, 0.01)
    assert(math.abs(h - 2.01) < 0.01, s"h = $h")
  }

  test("cohensH is antisymmetric") {
    assert(math.abs(Stats.cohensH(0.7, 0.2) + Stats.cohensH(0.2, 0.7)) < 1e-12)
  }

  test("cohensH rejects out-of-range proportions") {
    intercept[IllegalArgumentException](Stats.cohensH(-0.1, 0.5))
    intercept[IllegalArgumentException](Stats.cohensH(0.5, 1.1))
  }

  test("cohensH interpretation bands: 0.8 is 'large'") {
    // e.g. 0.5 vs 0.9 exceeds 0.8 (large); 0.5 vs 0.6 does not
    assert(Stats.cohensH(0.9, 0.5) > 0.8)
    assert(Stats.cohensH(0.6, 0.5) < 0.8)
  }

  test("erfc basic values") {
    assert(math.abs(Stats.erfc(0.0) - 1.0) < 1e-6)
    assert(Stats.erfc(3.0) < 1e-4)
    assert(math.abs(Stats.erfc(-3.0) - 2.0) < 1e-4)
  }

  test("erfc(1) matches the known value 0.1573") {
    assert(math.abs(Stats.erfc(1.0) - 0.157299) < 1e-5)
  }

  test("chiSquared2x2 of independent table is near 0") {
    // perfectly proportional rows
    assert(Stats.chiSquared2x2(10, 90, 100, 900) < 1e-9)
  }

  test("chiSquared2x2 of strongly dependent table is large") {
    assert(Stats.chiSquared2x2(10, 990, 160000, 40000) > 100.0)
  }

  test("chiSquared2x2 handles empty marginals") {
    assert(Stats.chiSquared2x2(0, 0, 5, 5) == 0.0)
    assert(Stats.chiSquared2x2(0, 0, 0, 0) == 0.0)
  }

  test("chi-squared p-value: critical value 3.841 gives p ≈ 0.05") {
    val p = Stats.chiSquaredPValue1Dof(3.841)
    assert(math.abs(p - 0.05) < 0.002, s"p = $p")
  }

  test("chi-squared p-value is monotone decreasing in the statistic") {
    assert(Stats.chiSquaredPValue1Dof(1.0) > Stats.chiSquaredPValue1Dof(5.0))
    assert(math.abs(Stats.chiSquaredPValue1Dof(0.0) - 1.0) < 1e-6)
  }

  test("wilsonConfidence with zero false triggers is below 1 (safety margin)") {
    val c = Stats.wilsonConfidence(0, 100)
    assert(c > 0.9 && c < 1.0, s"c = $c")
  }

  test("wilsonConfidence decreases with more false triggers") {
    val c0 = Stats.wilsonConfidence(0, 100)
    val c5 = Stats.wilsonConfidence(5, 95)
    val c20 = Stats.wilsonConfidence(20, 80)
    assert(c0 > c5 && c5 > c20)
  }

  test("wilsonConfidence is conservative vs the plain ratio") {
    // lower bound must not exceed the point estimate
    for ((ct, cnt) <- Seq((0L, 50L), (3L, 97L), (10L, 990L))) {
      assert(Stats.wilsonConfidence(ct, cnt) <= Stats.plainConfidence(ct, cnt))
    }
  }

  test("wilsonConfidence of empty coverage is 0") {
    assert(Stats.wilsonConfidence(0, 0) == 0.0)
  }

  test("wilson shrinks toward the plain ratio with more data (Table 2 example)") {
    val small = Stats.plainConfidence(1, 99) - Stats.wilsonConfidence(1, 99)
    val large = Stats.plainConfidence(100, 9900) - Stats.wilsonConfidence(100, 9900)
    assert(large < small)
  }

  test("plainConfidence is the simple ratio") {
    assert(Stats.plainConfidence(10, 990) == 1.0 - 10.0 / 1000.0)
  }

  test("confidenceUpperBound (Eq 19) increases with coverage") {
    assert(confidenceUpperBound(10) < confidenceUpperBound(100))
    assert(confidenceUpperBound(1000000) > 0.999)
  }

  test("minCoverageFor inverts confidenceUpperBound") {
    val n = Stats.minCoverageFor(0.9)
    assert(confidenceUpperBound(n) >= 0.9)
    assert(confidenceUpperBound(n - 1) < 0.9)
  }

  test("minCoverageFor rejects degenerate thresholds") {
    intercept[IllegalArgumentException](Stats.minCoverageFor(0.0))
    intercept[IllegalArgumentException](Stats.minCoverageFor(1.0))
  }
}
