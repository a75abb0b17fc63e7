package repro.lp

/** Reference for `Simplex.maximize`: the bounded-variable simplex as it was
  * before its pricing, ratio test and drift check were fused into fewer
  * passes, kept verbatim (two pricing loops, a ratio test over every
  * variable, a drift check after the pivot). `SimplexSpec` requires
  * `Simplex` to take the same pivots: the same iteration count, the same
  * bits of the objective and of every x_j, and the same exception.
  */
object ReferenceSimplex {
  import Simplex.Result

  private val Eps = 1e-9
  private val PivotTol = 1e-5
  private val DriftTol = 1e-5
  private val FeasTol = 1e-9
  private val RefineSteps = 5

  /** @param c objective coefficients (length n)
    * @param rows constraint rows: sparse (index, coeff) lists
    * @param b right-hand sides (length m, all >= 0)
    * @param upper upper bounds u (length n, each >= 0, `PositiveInfinity` for none)
    * @return the certified optimum; `iterations` counts pivots and bound flips
    * @throws IllegalStateException when the LP is unbounded, an optimum
    *         needs more than `maxIter` iterations, a pivot drifts, or the
    *         final basis fails its certificate
    */
  def maximize(c: Array[Double], rows: Array[Array[(Int, Double)]], b: Array[Double],
               upper: Array[Double], maxIter: Int = 200000): Result = {
    val n = c.length
    val m = rows.length
    require(b.length == m, "b length must match row count")
    require(upper.length == n, "upper length must match variable count")
    require(b.forall(_ >= -Eps), "simplex requires b >= 0 (all-slack start)")
    require(upper.forall(_ >= 0.0), "simplex requires upper bounds >= 0")

    // Tableau: m rows × (n + m) columns (vars, slacks) and the basic values.
    val width = n + m
    val t = Array.ofDim[Double](m, width)
    val xb = new Array[Double](m)
    for (i <- 0 until m) {
      rows(i).foreach { case (j, v) => t(i)(j) += v }
      t(i)(n + i) = 1.0
      xb(i) = b(i)
    }
    // Objective row (reduced costs), stored negated for a max problem.
    val z = new Array[Double](width)
    for (j <- 0 until n) z(j) = -c(j)

    val basis = Array.tabulate(m)(i => n + i)
    val rowOf = Array.fill(n)(-1) // row of a basic x_j
    val atUpper = new Array[Boolean](n)
    val nonZero = new Array[Int](width)
    val col = new Array[Double](m) // the entering column, read once per iteration
    var objective = 0.0
    var iter = 0
    var optimal = false

    while (!optimal) {
      // Entering variable: lowest score, ties to the lowest key.
      var enter = -1
      var best = -Eps
      var j = 0
      while (j < width) {
        if (j >= n || !atUpper(j)) { if (z(j) < best) { best = z(j); enter = j } }
        j += 1
      }
      j = 0
      while (j < n) {
        if (atUpper(j) && -z(j) < best) { best = -z(j); enter = j }
        j += 1
      }
      if (enter < 0) optimal = true
      else if (iter >= maxIter)
        throw new IllegalStateException(
          s"simplex: no optimum after $iter iterations (n=$n variables, m=$m rows)")
      else {
        val score = best
        val dir = if (enter < n && atUpper(enter)) -1.0 else 1.0
        var i = 0
        while (i < m) { col(i) = t(i)(enter); i += 1 }
        // Ratio test: A's rows (basic value falls to 0), then by variable
        // (basic value rises to its bound, or the entering one flips). Only
        // a column whose every pivot is below `PivotTol` pivots below it.
        var leave = -1
        var key = -1
        var rising = false
        var ratio = Double.MaxValue
        var tol = PivotTol
        while (key < 0 && tol > 0.0) {
          i = 0
          while (i < m) {
            val a = dir * col(i)
            if (a > tol) {
              val r = xb(i) / a
              if (better(r, basis(i), ratio, key)) { ratio = r; key = basis(i); leave = i; rising = false }
            }
            i += 1
          }
          j = 0
          while (j < n) {
            if (upper(j) < Double.PositiveInfinity) {
              if (j == enter) {
                val k = if (dir > 0) n + m + j else j
                if (better(upper(j), k, ratio, key)) { ratio = upper(j); key = k; leave = -1 }
              } else if (rowOf(j) >= 0) {
                val a = -dir * col(rowOf(j))
                if (a > tol) {
                  val r = (upper(j) - xb(rowOf(j))) / a
                  if (better(r, n + m + j, ratio, key)) { ratio = r; key = n + m + j; leave = rowOf(j); rising = true }
                }
              }
            }
            j += 1
          }
          tol = if (tol > Eps) Eps else 0.0
        }
        if (key < 0) throw new IllegalStateException("simplex: unbounded LP (check variable upper bounds)")

        i = 0
        while (i < m) {
          if (i != leave) {
            val f = dir * col(i)
            if (math.abs(f) > Eps) xb(i) -= f * ratio else if (f != 0.0) t(i)(enter) = 0.0
          }
          i += 1
        }
        if (leave < 0) atUpper(enter) = dir > 0 // bound flip: the basis stays
        else {
          xb(leave) = if (dir > 0) ratio else upper(enter) - ratio
          val out = basis(leave)
          if (out < n) { rowOf(out) = -1; atUpper(out) = rising }
          if (enter < n) { rowOf(enter) = leave; atUpper(enter) = false }
          pivot(t, z, basis, leave, enter, col, nonZero)
        }
        iter += 1

        // Fail fast: a primal pivot never lowers the objective and keeps
        // every basic value within its bounds (negated, so a NaN fails).
        val before = objective
        objective -= score * ratio
        if (!(objective >= before - DriftTol * math.max(1.0, math.abs(before))))
          throw new IllegalStateException(
            s"simplex: objective fell from $before to $objective at iteration $iter (n=$n, m=$m)")
        i = 0
        while (i < m) {
          val v = basis(i)
          val hi = if (v < n) upper(v) else Double.PositiveInfinity
          if (!(xb(i) >= -DriftTol && xb(i) <= hi + DriftTol * math.max(1.0, hi)))
            throw new IllegalStateException(
              s"simplex: basic value ${xb(i)} of variable $v left [0, $hi] at iteration $iter (n=$n, m=$m)")
          i += 1
        }
      }
    }

    val x = certify(c, rows, b, upper, t, z, xb, basis, atUpper)
    var obj = 0.0
    for (j <- 0 until n) obj += c(j) * x(j)
    Result(obj, x, iter)
  }

  /** Ratio `r` of key `k` replaces the best so far (`bestKey` < 0: none). */
  private def better(r: Double, k: Int, best: Double, bestKey: Int): Boolean =
    r < best - Eps || (math.abs(r - best) <= Eps && bestKey >= 0 && k < bestKey)

  /** Refines the final basis's primal values and duals and checks both;
    * returns x (length n) or throws.
    */
  private def certify(c: Array[Double], rows: Array[Array[(Int, Double)]], b: Array[Double],
                      upper: Array[Double], t: Array[Array[Double]], z: Array[Double],
                      xb: Array[Double], basis: Array[Int], atUpper: Array[Boolean]): Array[Double] = {
    val n = c.length
    val m = rows.length
    // B⁻¹ is the tableau's slack block: B⁻¹(k, i) = t(k)(n + i).
    val x = new Array[Double](n + m)
    def values(): Unit = {
      for (j <- 0 until n) x(j) = if (atUpper(j)) upper(j) else 0.0
      for (i <- 0 until m) x(n + i) = 0.0
      for (k <- 0 until m) x(basis(k)) = xb(k)
    }
    def ax(i: Int): Double = { var s = 0.0; rows(i).foreach { case (j, v) => s += v * x(j) }; s }
    def primalGap(): Double = {
      var worst = 0.0
      for (i <- 0 until m) worst = math.max(worst, (ax(i) - b(i)) / math.max(1.0, math.abs(b(i))))
      for (j <- 0 until n) {
        worst = math.max(worst, -x(j))
        if (upper(j) < Double.PositiveInfinity) worst = math.max(worst, (x(j) - upper(j)) / math.max(1.0, upper(j)))
      }
      worst
    }
    // The checks are negated comparisons, so that a NaN fails them.
    values()
    var gap = primalGap()
    var step = 0
    while (!(gap <= FeasTol) && step < RefineSteps) {
      val r = Array.tabulate(m)(i => b(i) - ax(i) - x(n + i))
      for (k <- 0 until m) {
        val row = t(k)
        var s = 0.0
        for (i <- 0 until m) s += row(n + i) * r(i)
        xb(k) += s
      }
      values()
      gap = primalGap()
      step += 1
    }
    if (!(gap <= FeasTol))
      throw new IllegalStateException(
        s"simplex: optimum breaks a row or bound by $gap after $step refinements (n=$n, m=$m)")

    // Duals y = z's slack block; reduced cost d_v = c_v − y·A_v.
    val y = Array.tabulate(m)(i => z(n + i))
    val yA = new Array[Double](n)
    def reduced(): Unit = {
      java.util.Arrays.fill(yA, 0.0)
      for (i <- 0 until m) rows(i).foreach { case (j, v) => yA(j) += y(i) * v }
    }
    def d(v: Int): Double = if (v < n) c(v) - yA(v) else -y(v - n)
    val basic = new Array[Boolean](n + m)
    basis.foreach(basic(_) = true)
    val tol = FeasTol * math.max(1.0, c.foldLeft(0.0)((a, v) => math.max(a, math.abs(v))))
    def dualGap(): Double = {
      var worst = 0.0
      for (v <- 0 until n + m if !basic(v))
        worst = math.max(worst, if (v < n && atUpper(v)) -d(v) else d(v))
      worst
    }
    reduced()
    var dGap = dualGap()
    step = 0
    while (!(dGap <= tol) && step < RefineSteps) {
      val rd = Array.tabulate(m)(k => d(basis(k)))
      for (i <- 0 until m) {
        var s = 0.0
        for (k <- 0 until m) s += rd(k) * t(k)(n + i)
        y(i) += s
      }
      reduced()
      dGap = dualGap()
      step += 1
    }
    if (!(dGap <= tol))
      throw new IllegalStateException(
        s"simplex: reduced costs break dual feasibility by $dGap after $step refinements (n=$n, m=$m)")
    java.util.Arrays.copyOf(x, n)
  }

  /** Pivots on (leave, enter); `col` holds the entering column. Entries
    * that are zero in the pivot row or in `col` are not rewritten: that
    * could change only the sign of a zero, which no decision reads.
    */
  private def pivot(t: Array[Array[Double]], z: Array[Double], basis: Array[Int],
                    leave: Int, enter: Int, col: Array[Double], nonZero: Array[Int]): Unit = {
    val prow = t(leave)
    val pval = prow(enter)
    var nnz = 0
    var j = 0
    while (j < prow.length) {
      if (prow(j) != 0.0) {
        prow(j) /= pval
        if (prow(j) != 0.0) { nonZero(nnz) = j; nnz += 1 }
      }
      j += 1
    }
    var i = 0
    while (i < t.length) {
      if (i != leave) {
        val f = col(i)
        if (math.abs(f) > Eps) {
          val row = t(i)
          var q = 0
          while (q < nnz) { val k = nonZero(q); row(k) -= f * prow(k); q += 1 }
        } else if (f != 0.0) t(i)(enter) = 0.0
      }
      i += 1
    }
    val zf = z(enter)
    if (math.abs(zf) > Eps) {
      var q = 0
      while (q < nnz) { val k = nonZero(q); z(k) -= zf * prow(k); q += 1 }
    }
    basis(leave) = enter
  }
}
