package repro.outlier

import repro.baselines.ErrorDetector
import repro.corpus.TableColumn
import repro.linalg.LinAlg
import repro.util.Det

/** The six classical outlier-detection baselines of paper Sec 6.2: RKDE,
  * PPCA, IForest (best performers in the [24] study) and SVDD, DBOD, LOF
  * (classical methods from [33]'s comparison). Each scores values within a
  * single column over [[Features]] vectors; higher = more anomalous.
  */
object OutlierDetectors {

  private val MinN = 5

  abstract class FeatureDetector(val name: String) extends ErrorDetector {
    /** anomaly scores, one per row of `x` */
    def scores(x: Array[Array[Double]], seed: Long): Array[Double]

    final override def detect(col: TableColumn): Seq[(String, Double)] = {
      if (col.values.size < MinN) return Seq.empty
      val x = Features.matrix(col.values)
      val s = scores(x, Det.hashString(col.colId))
      // Report the suspicious half only: values above the median score.
      val med = median(s)
      col.values.indices.collect { case i if s(i) > med => (col.values(i), s(i)) }
    }
  }

  private def median(a: Array[Double]): Double = {
    val s = a.sorted; s(s.length / 2)
  }

  private def pairwise(x: Array[Array[Double]]): Array[Array[Double]] = {
    val n = x.length
    val d = Array.ofDim[Double](n, n)
    for (i <- 0 until n; j <- i + 1 until n) {
      val dist = LinAlg.euclidean(x(i), x(j))
      d(i)(j) = dist; d(j)(i) = dist
    }
    d
  }

  /** The median of the distances d(i)(j), i < j, of a `pairwise` matrix;
    * None with fewer than two points.
    */
  private def pairMedian(d: Array[Array[Double]]): Option[Double] = {
    val n = d.length
    val all = (for (i <- 0 until n; j <- i + 1 until n) yield d(i)(j)).toArray
    if (all.isEmpty) None else Some(median(all))
  }

  private def kthSmallest(row: Array[Double], self: Int, k: Int): Double = {
    val others = row.indices.filter(_ != self).map(row).sorted
    others(math.min(k - 1, others.length - 1))
  }

  // ------------------------------------------------------------------- LOF
  /** Local Outlier Factor (Breunig et al. 2000), k=3. */
  final class Lof extends FeatureDetector("LOF") {
    override def scores(x: Array[Array[Double]], seed: Long): Array[Double] = {
      val n = x.length
      val d = pairwise(x)
      val kk = math.min(3, n - 1)
      val kDist = Array.tabulate(n)(i => kthSmallest(d(i), i, kk))
      val neighbors = Array.tabulate(n) { i =>
        (0 until n).filter(j => j != i && d(i)(j) <= kDist(i) + 1e-12)
      }
      val lrd = Array.tabulate(n) { i =>
        val reach = neighbors(i).map(j => math.max(kDist(j), d(i)(j)))
        val m = if (reach.isEmpty) 0.0 else reach.sum / reach.size
        // Floor the reachability mean: near-duplicate feature points would
        // otherwise produce unbounded density ratios.
        1.0 / math.max(m, 0.05)
      }
      Array.tabulate(n) { i =>
        val ns = neighbors(i)
        if (ns.isEmpty || lrd(i) < 1e-12) 1.0
        else ns.map(lrd).sum / ns.size / lrd(i)
      }
    }
  }

  // ------------------------------------------------------------------ DBOD
  /** Distance-based outliers (Knorr & Ng 1998): score = 1 − fraction of
    * points within radius r (r = median pairwise distance / 2).
    */
  final class Dbod extends FeatureDetector("DBOD") {
    override def scores(x: Array[Array[Double]], seed: Long): Array[Double] = {
      val n = x.length
      val d = pairwise(x)
      val r = pairMedian(d).fold(0.0)(_ / 2.0)
      Array.tabulate(n) { i =>
        1.0 - (0 until n).count(j => j != i && d(i)(j) <= r).toDouble / (n - 1)
      }
    }
  }

  // ------------------------------------------------------------------ SVDD
  /** Support-vector data description (Tax & Duin 2004), simplified to the
    * minimum-enclosing-sphere geometry: distance from the robust centre.
    */
  final class Svdd extends FeatureDetector("SVDD") {
    override def scores(x: Array[Array[Double]], seed: Long): Array[Double] = {
      // Robust centre: coordinate-wise median.
      val dim = x.head.length
      val centre = Array.tabulate(dim)(j => median(x.map(_(j))))
      x.map(v => LinAlg.euclidean(v, centre))
    }
  }

  // ---------------------------------------------------------------- IForest
  /** Isolation forest (Liu et al. 2008): 25 trees, subsample 64. */
  final class IForest extends FeatureDetector("IForest") {
    private val nTrees = 25
    private val subsample = 64
    override def scores(x: Array[Array[Double]], seed: Long): Array[Double] = {
      val n = x.length
      val dim = x.head.length
      val sub = math.min(subsample, n)
      val maxDepth = math.ceil(math.log(sub.toDouble) / math.log(2.0)).toInt + 1

      def pathLength(v: Array[Double], idxs: IndexedSeq[Int], depth: Int, s: Long): Double = {
        if (depth >= maxDepth || idxs.size <= 1) depth + c(idxs.size)
        else {
          val f = Det.nextInt(Det.combine(s, 1), dim)
          val vals = idxs.map(i => x(i)(f))
          val lo = vals.min; val hi = vals.max
          if (hi - lo < 1e-12) depth + c(idxs.size)
          else {
            val split = lo + Det.uniform(Det.combine(s, 2)) * (hi - lo)
            val (l, r) = idxs.partition(i => x(i)(f) < split)
            if (v(f) < split) pathLength(v, l, depth + 1, Det.combine(s, 3))
            else pathLength(v, r, depth + 1, Det.combine(s, 4))
          }
        }
      }

      def c(m: Int): Double =
        if (m <= 1) 0.0 else 2.0 * (math.log(m - 1.0) + 0.5772156649) - 2.0 * (m - 1.0) / m

      val avgPath = new Array[Double](n)
      for (t <- 0 until nTrees) {
        val ts = Det.combine(seed, t.toLong)
        val sample = Det.sampleIndices(ts, n, sub)
        for (i <- 0 until n) avgPath(i) += pathLength(x(i), sample, 0, Det.combine(ts, 0x7))
      }
      val cn = c(sub)
      avgPath.map(p => math.pow(2.0, -(p / nTrees) / math.max(cn, 1e-9)))
    }
  }

  // ------------------------------------------------------------------ RKDE
  /** Robust kernel density estimation (Kim & Scott 2012): gaussian KDE with
    * one robust reweighting step; score = −log density.
    */
  final class Rkde extends FeatureDetector("RKDE") {
    override def scores(x: Array[Array[Double]], seed: Long): Array[Double] = {
      val n = x.length
      val d = pairwise(x)
      val h = math.max(pairMedian(d).getOrElse(0.1), 0.05)
      def density(w: Array[Double], i: Int): Double = {
        var s = 0.0
        for (j <- 0 until n if j != i) s += w(j) * math.exp(-d(i)(j) * d(i)(j) / (2 * h * h))
        s / math.max(w.sum - w(i), 1e-12)
      }
      val w0 = Array.fill(n)(1.0)
      val dens0 = Array.tabulate(n)(i => density(w0, i))
      // Robust step: down-weight low-density points (Huber-style).
      val medD = median(dens0)
      val w1 = dens0.map(p => math.min(1.0, p / math.max(medD, 1e-12)))
      val dens1 = Array.tabulate(n)(i => density(w1, i))
      dens1.map(p => -math.log(p + 1e-12))
    }
  }

  // ------------------------------------------------------------------ PPCA
  /** Probabilistic PCA (Tipping & Bishop 1999): keep 3 components, score by
    * reconstruction error.
    */
  final class Ppca extends FeatureDetector("PPCA") {
    override def scores(x: Array[Array[Double]], seed: Long): Array[Double] = {
      val mu = LinAlg.mean(x.toIndexedSeq)
      val cov = LinAlg.covariance(x.toIndexedSeq)
      val (evals, evecs) = LinAlg.symmetricEigen(cov)
      val dim = mu.length
      val keep = math.min(3, dim)
      x.map { v =>
        val centered = LinAlg.sub(v, mu)
        // Project onto the top-3 principal subspace and reconstruct.
        val recon = new Array[Double](dim)
        for (k <- 0 until keep if evals(k) > 1e-12) {
          val comp = Array.tabulate(dim)(i => evecs(i)(k))
          val coeff = LinAlg.dot(centered, comp)
          for (i <- 0 until dim) recon(i) += coeff * comp(i)
        }
        LinAlg.euclidean(centered, recon)
      }
    }
  }
}
