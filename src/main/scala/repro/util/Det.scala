package repro.util

/** Deterministic, hash-based randomness primitives.
  *
  * Every random draw in the reproduction goes through this object so that
  * corpora, trained models, and bench outputs are bit-stable across runs and
  * across the thread counts of the driver's parallel passes (no mutable RNG
  * state is ever shared; each draw is a pure function of its seed material).
  *
  * The mixer is the splitmix64 finalizer, which has full avalanche behaviour
  * and is cheap enough to call per value.
  */
object Det {

  /** splitmix64 finalizer: full-avalanche 64-bit mix. */
  def mix64(z0: Long): Long = {
    var z = z0 + 0x9e3779b97f4a7c15L
    z = (z ^ (z >>> 30)) * 0xbf58476d1ce4e5b9L
    z = (z ^ (z >>> 27)) * 0x94d049bb133111ebL
    z ^ (z >>> 31)
  }

  /** Stable 64-bit hash of a string (FNV-1a folded through mix64). */
  def hashString(s: String): Long = {
    var h = 0xcbf29ce484222325L
    var i = 0
    while (i < s.length) {
      h ^= s.charAt(i).toLong
      h *= 0x100000001b3L
      i += 1
    }
    mix64(h)
  }

  private final val CombineInit = 0x51_7c_c1_b7_27_22_0a_95L

  /** Combine seed material into one seed. */
  def combine(parts: Long*): Long = {
    var h = CombineInit
    parts.foreach(p => h = mix64(h ^ p))
    h
  }

  /** `combine(a, b)` without boxing the parts. */
  def combine(a: Long, b: Long): Long = mix64(mix64(CombineInit ^ a) ^ b)

  /** `combine(a, b, c)` without boxing the parts. */
  def combine(a: Long, b: Long, c: Long): Long = mix64(combine(a, b) ^ c)

  /** Uniform double in [0, 1) from a seed. */
  def uniform(seed: Long): Double =
    ((mix64(seed) >>> 11).toDouble) / (1L << 53).toDouble

  /** Uniform int in [0, n) from a seed. */
  def nextInt(seed: Long, n: Int): Int = {
    require(n > 0, s"nextInt bound must be positive, got $n")
    ((mix64(seed) >>> 1) % n).toInt
  }

  /** Standard gaussian via Box-Muller on two derived uniforms. */
  def gaussian(seed: Long): Double = {
    val u1 = math.max(uniform(combine(seed, 0x1)), 1e-12)
    val u2 = uniform(combine(seed, 0x2))
    math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.Pi * u2)
  }

  /** Pick one element of a non-empty sequence, uniformly. */
  def pick[T](seed: Long, xs: IndexedSeq[T]): T = {
    require(xs.nonEmpty, "pick from empty sequence")
    xs(nextInt(seed, xs.length))
  }

  /** Weighted pick: weights must be non-negative, not all zero. */
  def pickWeighted[T](seed: Long, xs: IndexedSeq[(T, Double)]): T = {
    val total = xs.map(_._2).sum
    require(total > 0, "pickWeighted needs positive total weight")
    var u = uniform(seed) * total
    var i = 0
    while (i < xs.length - 1 && u >= xs(i)._2) { u -= xs(i)._2; i += 1 }
    xs(i)._1
  }

  /** Deterministic Fisher-Yates shuffle. */
  def shuffle[T](seed: Long, xs: Seq[T]): IndexedSeq[T] = {
    val arr = xs.toBuffer
    var i = arr.length - 1
    while (i > 0) {
      val j = nextInt(combine(seed, i.toLong), i + 1)
      val t = arr(i); arr(i) = arr(j); arr(j) = t
      i -= 1
    }
    arr.toIndexedSeq
  }

  /** Sample k distinct indices from [0, n) (k <= n), deterministic. */
  def sampleIndices(seed: Long, n: Int, k: Int): IndexedSeq[Int] = {
    require(k <= n, s"cannot sample $k from $n")
    shuffle(seed, 0 until n).take(k).toIndexedSeq
  }

  /** Zipf ranks in [0, n) with exponent alpha, for repeated draws.
    *
    * Rank weights 1/(k+1)^alpha; sampled by linear scan over the CDF of a
    * truncated harmonic series. The weights and their left-to-right sum are
    * computed once per instance, so a draw is one scan.
    */
  final class Zipf(n: Int, alpha: Double) {
    private val w: Array[Double] = Array.tabulate(n)(k => 1.0 / math.pow(k + 1.0, alpha))
    private val total: Double = { var s = 0.0; w.foreach(s += _); s }

    def draw(seed: Long): Int = {
      var u = uniform(seed) * total
      var i = 0
      while (i < n - 1 && u >= w(i)) { u -= w(i); i += 1 }
      i
    }
  }
}
