package repro.linalg

/** Minimal dense linear algebra used by the outlier-detection substrate
  * (PPCA's eigendecomposition, SVDD's centroid geometry) and by the synthetic
  * embeddings. Dimensions here are tiny (<= 32), so simple O(d^3) routines
  * are both adequate and dependency-free.
  */
object LinAlg {

  type Vec = Array[Double]
  type Mat = Array[Array[Double]] // row-major

  def dot(a: Vec, b: Vec): Double = {
    require(a.length == b.length, "dot: dimension mismatch")
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  def sub(a: Vec, b: Vec): Vec = {
    require(a.length == b.length, "sub: dimension mismatch")
    Array.tabulate(a.length)(i => a(i) - b(i))
  }

  def scale(a: Vec, s: Double): Vec = {
    val out = new Array[Double](a.length)
    var i = 0
    while (i < a.length) { out(i) = a(i) * s; i += 1 }
    out
  }

  /** ‖a − b‖₂ without allocating: Σ(aᵢ − bᵢ)² left to right, then sqrt,
    * which is bit-identical to `math.sqrt(dot(d, d))` for d = `sub(a, b)`.
    */
  def euclidean(a: Vec, b: Vec): Double = {
    require(a.length == b.length, "euclidean: dimension mismatch")
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - b(i); s += d * d; i += 1 }
    math.sqrt(s)
  }

  def mean(rows: Seq[Vec]): Vec = {
    require(rows.nonEmpty, "mean of empty set")
    val d = rows.head.length
    val m = new Array[Double](d)
    rows.foreach { r => var i = 0; while (i < d) { m(i) += r(i); i += 1 } }
    scale(m, 1.0 / rows.size)
  }

  /** Sample covariance matrix (divides by n, not n-1: fine for density use). */
  def covariance(rows: Seq[Vec]): Mat = {
    val mu = mean(rows)
    val d  = mu.length
    val c  = Array.ofDim[Double](d, d)
    rows.foreach { r =>
      val x = sub(r, mu)
      var i = 0
      while (i < d) {
        var j = 0
        while (j < d) { c(i)(j) += x(i) * x(j); j += 1 }
        i += 1
      }
    }
    val n = rows.size.toDouble
    c.map(_.map(_ / n))
  }

  /** Jacobi eigendecomposition of a symmetric matrix: at most 64 sweeps,
    * stopping once the off-diagonal square sum is at most 1e-12 (entries
    * at most 1e-12 in magnitude are not rotated).
    * Returns (eigenvalues desc, eigenvectors as columns matching order).
    */
  def symmetricEigen(m0: Mat): (Vec, Mat) = {
    val maxSweeps = 64
    val tol = 1e-12
    val d = m0.length
    val a = m0.map(_.clone())
    val v = Array.tabulate(d, d)((i, j) => if (i == j) 1.0 else 0.0)

    def offDiag(): Double = {
      var s = 0.0
      for (i <- 0 until d; j <- i + 1 until d) s += a(i)(j) * a(i)(j)
      s
    }

    var sweep = 0
    while (sweep < maxSweeps && offDiag() > tol) {
      for (p <- 0 until d; q <- p + 1 until d if math.abs(a(p)(q)) > tol) {
        val theta = (a(q)(q) - a(p)(p)) / (2.0 * a(p)(q))
        // theta == 0 means a 45° rotation; signum(0) would stall the sweep.
        val t =
          if (theta == 0.0) 1.0
          else math.signum(theta) / (math.abs(theta) + math.sqrt(theta * theta + 1.0))
        val c = 1.0 / math.sqrt(t * t + 1.0)
        val s = t * c
        for (i <- 0 until d) {
          val aip = a(i)(p); val aiq = a(i)(q)
          a(i)(p) = c * aip - s * aiq
          a(i)(q) = s * aip + c * aiq
        }
        for (i <- 0 until d) {
          val api = a(p)(i); val aqi = a(q)(i)
          a(p)(i) = c * api - s * aqi
          a(q)(i) = s * api + c * aqi
        }
        for (i <- 0 until d) {
          val vip = v(i)(p); val viq = v(i)(q)
          v(i)(p) = c * vip - s * viq
          v(i)(q) = s * vip + c * viq
        }
      }
      sweep += 1
    }
    val pairs = (0 until d).map(i => (a(i)(i), i)).sortBy(-_._1)
    val evals = pairs.map(_._1).toArray
    val evecs = Array.tabulate(d, d)((i, k) => v(i)(pairs(k)._2))
    (evals, evecs)
  }
}
