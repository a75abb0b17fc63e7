package repro.lp

/** Reference for `Simplex.maximize`: the explicit-bound solver it replaced,
  * with a full-row pivot update. It solves A x <= b, x >= 0 with every
  * bound written as a row (`LpInstance.boundRows`), prices by Dantzig's rule
  * with a switch to Bland's, and returns its last vertex unchecked, which
  * can break rows. `SimplexSpec` requires `Simplex`'s objective to equal its
  * own wherever it returns a feasible point.
  */
object DenseSimplex {
  import Simplex.Result

  private val Eps = 1e-9

  /** @param c objective coefficients (length n)
    * @param rows constraint rows: sparse (index, coeff) lists
    * @param b right-hand sides (length m, all >= 0)
    * @throws IllegalStateException when the LP is unbounded or an optimum
    *         needs more than `maxIter` pivots
    */
  def maximize(c: Array[Double], rows: Array[Array[(Int, Double)]], b: Array[Double],
               maxIter: Int = 200000): Result = {
    val n = c.length
    val m = rows.length
    require(b.length == m, "b length must match row count")
    require(b.forall(_ >= -Eps), "simplex requires b >= 0 (all-slack start)")

    // Tableau: m rows × (n + m + 1) columns (vars, slacks, rhs).
    val width = n + m + 1
    val t = Array.ofDim[Double](m, width)
    for (i <- 0 until m) {
      rows(i).foreach { case (j, v) => t(i)(j) += v }
      t(i)(n + i) = 1.0
      t(i)(width - 1) = b(i)
    }
    // Objective row (reduced costs), stored negated for a max problem.
    val z = new Array[Double](width)
    for (j <- 0 until n) z(j) = -c(j)

    val basis = Array.tabulate(m)(i => n + i)
    var iter = 0
    var optimal = false
    val blandAfter = math.max(2000, 4 * (n + m))

    while (!optimal) {
      // Entering column.
      var enter = -1
      if (iter < blandAfter) {
        var best = -Eps
        var j = 0
        while (j < n + m) {
          if (z(j) < best) { best = z(j); enter = j }
          j += 1
        }
      } else { // Bland: first negative
        var j = 0
        while (j < n + m && enter < 0) { if (z(j) < -Eps) enter = j; j += 1 }
      }
      if (enter < 0) optimal = true
      else if (iter >= maxIter)
        throw new IllegalStateException(
          s"simplex: no optimum after $iter iterations (n=$n variables, m=$m rows)")
      else {
        // Ratio test.
        var leave = -1
        var bestRatio = Double.MaxValue
        var i = 0
        while (i < m) {
          val a = t(i)(enter)
          if (a > Eps) {
            val r = t(i)(width - 1) / a
            if (r < bestRatio - Eps || (math.abs(r - bestRatio) <= Eps && leave >= 0 && basis(i) < basis(leave))) {
              bestRatio = r; leave = i
            }
          }
          i += 1
        }
        if (leave < 0) {
          // Unbounded: cannot happen for bounded CSS-LP; bail with current.
          throw new IllegalStateException("simplex: unbounded LP (check variable upper bounds)")
        }
        pivot(t, z, basis, leave, enter, width)
        iter += 1
      }
    }

    val x = new Array[Double](n)
    for (i <- 0 until m) if (basis(i) < n) x(basis(i)) = t(i)(width - 1)
    var obj = 0.0
    for (j <- 0 until n) obj += c(j) * x(j)
    Result(obj, x, iter)
  }

  private def pivot(t: Array[Array[Double]], z: Array[Double], basis: Array[Int],
                    leave: Int, enter: Int, width: Int): Unit = {
    val prow = t(leave)
    val pval = prow(enter)
    var j = 0
    while (j < width) { prow(j) /= pval; j += 1 }
    var i = 0
    while (i < t.length) {
      if (i != leave) {
        val row = t(i)
        val f = row(enter)
        if (math.abs(f) > Eps) {
          var k = 0
          while (k < width) { row(k) -= f * prow(k); k += 1 }
        } else row(enter) = 0.0
      }
      i += 1
    }
    val zf = z(enter)
    if (math.abs(zf) > Eps) {
      var k = 0
      while (k < width) { z(k) -= zf * prow(k); k += 1 }
    }
    basis(leave) = enter
  }
}
