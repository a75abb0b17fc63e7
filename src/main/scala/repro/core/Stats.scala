package repro.core

/** Statistical machinery of paper Sec 5.2: Cohen's h effect size (Eq 8),
  * Pearson chi-squared significance on the 2x2 contingency table, and the
  * Wilson score lower bound on SDC confidence (Eq 9).
  */
object Stats {

  /** Cohen's h between two proportions (Eq 8):
    * h = 2 (arcsin sqrt(p1) − arcsin sqrt(p2)).
    */
  def cohensH(p1: Double, p2: Double): Double = {
    require(p1 >= 0 && p1 <= 1 && p2 >= 0 && p2 <= 1, s"proportions out of range: $p1, $p2")
    2.0 * (math.asin(math.sqrt(p1)) - math.asin(math.sqrt(p2)))
  }

  /** Complementary error function (Abramowitz & Stegun 7.1.26-based rational
    * approximation; max abs error ~1.5e-7 — ample for a 0.05 p-value gate).
    */
  def erfc(x: Double): Double = {
    val z = math.abs(x)
    val t = 1.0 / (1.0 + 0.5 * z)
    val ans = t * math.exp(-z * z - 1.26551223 + t * (1.00002368 + t * (0.37409196 +
      t * (0.09678418 + t * (-0.18628806 + t * (0.27886807 + t * (-1.13520398 +
      t * (1.48851587 + t * (-0.82215223 + t * 0.17087277)))))))))
    if (x >= 0) ans else 2.0 - ans
  }

  /** Pearson chi-squared statistic for a 2x2 contingency table
    * [[a, b], [c, d]] (0 if any marginal is empty).
    */
  def chiSquared2x2(a: Long, b: Long, c: Long, d: Long): Double = {
    val n = (a + b + c + d).toDouble
    if (n == 0) return 0.0
    val r1 = (a + b).toDouble; val r2 = (c + d).toDouble
    val c1 = (a + c).toDouble; val c2 = (b + d).toDouble
    if (r1 == 0 || r2 == 0 || c1 == 0 || c2 == 0) return 0.0
    val num = n * math.pow((a * d - b * c).toDouble, 2)
    num / (r1 * r2 * c1 * c2)
  }

  /** Upper-tail p-value of a chi-squared statistic with 1 degree of freedom:
    * P(X >= x) = erfc(sqrt(x / 2)).
    */
  def chiSquaredPValue1Dof(x: Double): Double = erfc(math.sqrt(math.max(x, 0.0) / 2.0))

  /** Normal quantile for the paper's 95% one-sided interval. */
  val Z95: Double = 1.65

  /** Wilson score lower bound on SDC confidence (Eq 9).
    *
    * @param nCT  |C^r_{C,T}|  covered-and-triggered columns (false triggers)
    * @param nCnT |C^r_{C,!T}| covered-not-triggered columns
    */
  def wilsonConfidence(nCT: Long, nCnT: Long): Double = {
    val nC = (nCT + nCnT).toDouble
    if (nC == 0) return 0.0
    val z2 = Z95 * Z95
    val center = (nCT + 0.5 * z2) / (nC + z2)
    val spread = Z95 / (nC + z2) * math.sqrt(nCT.toDouble * nCnT.toDouble / nC + z2 / 4.0)
    math.max(0.0, 1.0 - center - spread)
  }

  /** Heuristic (non-Wilson) confidence estimate 1 − nCT/nC, used by the
    * Table 8 "no Wilson score interval" ablation.
    */
  def plainConfidence(nCT: Long, nCnT: Long): Double = {
    val nC = (nCT + nCnT).toDouble
    if (nC == 0) 0.0 else 1.0 - nCT / nC
  }

  /** Appendix B.1 Observation 1 corollary: minimum coverage n for the
    * confidence upper bound of Eq 19, 1 − z²/(n + z²) (a rule with zero false
    * triggers), to reach `cThres`.
    */
  def minCoverageFor(cThres: Double): Long = {
    require(cThres > 0 && cThres < 1, s"cThres must be in (0,1), got $cThres")
    val z2 = Z95 * Z95
    math.ceil(z2 * cThres / (1.0 - cThres)).toLong
  }
}
