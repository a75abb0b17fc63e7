package repro.dists

import repro.domains.VocabDomain
import repro.util.Det

/** CTA-classifier simulation (substitute for Sherlock / Doduo, see DESIGN §2).
  *
  * A classifier for type t scores a value v in [0, 1] (Eq 1 standardises it
  * to distance 1 − score). The simulation reproduces the calibration
  * behaviour the paper builds on:
  *
  *   - values in the classifier's *training vocabulary* score high (0.85+),
  *   - valid-but-unseen values score mid (0.45–0.75 if in the full domain
  *     vocabulary, else by character-trigram likelihood) — the Example 2
  *     "omayra" effect that breaks naive per-value thresholding,
  *   - out-of-type values score near 0 (trigram likelihood ratio ≈ 0).
  *
  * Sherlock-sim and Doduo-sim differ in which subset of the domain they were
  * "trained" on and in their score jitter, mimicking two independent model
  * families with overlapping coverage.
  */
final class CtaClassifier private (
    val id: String,
    private[dists] val trainSet: Set[String],
    private[dists] val fullSet: Set[String],
    private[dists] val triLogOdds: Map[String, Double],
    private[dists] val jitterSeed: Long,
) extends DomainEval {

  override def family: String = DomainEval.Cta

  /** This classifier alone, the path of every per-value call. */
  private lazy val alone = new CtaClassifier.Bank(IndexedSeq(this), Array(0))

  /** Classifier similarity score in [0, 1]. */
  def score(raw: String): Double = {
    val out = Array(new Array[Double](1))
    alone.scoresInto(Array(DomainEval.normalize(raw)), 0, Array(true), out)
    out(0)(0)
  }

  override def distance(v: String): Double = 1.0 - score(v)

  /** Score of a non-empty normalized value whose hash is `hash`, whose
    * `nGrams` trigrams' log-odds under this classifier sum to `llrSum`, and
    * whose vocabulary membership under it is `member`
    * ([[CtaClassifier.InTraining]], [[CtaClassifier.InFull]] or 0).
    */
  private def scoreOf(hash: Long, nGrams: Int, llrSum: Double, member: Byte): Double = {
    val base =
      if (member == CtaClassifier.InTraining) 0.85 + 0.13 * Det.uniform(Det.combine(jitterSeed, hash))
      else if (member == CtaClassifier.InFull) 0.45 + 0.30 * Det.uniform(Det.combine(jitterSeed, 0x2, hash))
      else 0.5 * (1.0 / (1.0 + math.exp(-(llrSum / nGrams)))) // logistic squash of the mean trigram LLR
    // Per-value calibration noise: real neural CTA classifiers are not
    // cleanly banded per value, which is what defeats naive per-value
    // z-score thresholding (Example 2).
    val noise = 0.16 * (Det.uniform(Det.combine(jitterSeed, 0x3, hash)) - 0.5)
    math.min(1.0, math.max(0.0, base + noise))
  }
}

object CtaClassifier {

  /** LLR assigned to trigrams never seen in the type's vocabulary. */
  val UnseenLogOdds: Double = -4.0

  /** A value's membership under one classifier: in its training vocabulary,
    * or only in its type's full vocabulary (0: in neither).
    */
  private val InTraining: Byte = 1
  private val InFull: Byte = 2

  /** A trigram's three UTF-16 units, packed into the low 48 bits. */
  private val Packed: Long = 0xFFFFFFFFFFFFL

  private def pack(g: String): Long =
    (g.charAt(0).toLong << 32) | (g.charAt(1).toLong << 16) | g.charAt(2).toLong

  /** Classifiers scored together: each value is hashed, split into trigrams
    * and looked up in the vocabularies once for all of them.
    * Every score, a single classifier's included, is computed here.
    * Classifier k's scores go to row `rows(k)` of the caller's matrix.
    */
  private[dists] final class Bank(classifiers: IndexedSeq[CtaClassifier], rows: Array[Int]) {

    private val nC = classifiers.size

    /** The classifiers' trigrams in an open-addressing table, each packed
      * ([[pack]]) into its key: slot s holds `keys(s)` (-1 if empty), and
      * `llrs(at(s) + k)` is that trigram's log-odds under classifier k,
      * [[UnseenLogOdds]] where k never saw it. `unseenAt` is the row of a
      * trigram in no table. Keys that are not 3 units long (the "^$" of an
      * empty word) are left out: a non-empty value never produces them.
      */
    private val (keys, at, llrs, unseenAt): (Array[Long], Array[Int], Array[Double], Int) = {
      val byGram = new java.util.HashMap[java.lang.Long, Array[Double]]()
      classifiers.indices.foreach { k =>
        classifiers(k).triLogOdds.foreach { case (g, llr) =>
          if (g.length == 3) byGram.computeIfAbsent(pack(g), _ => Array.fill(nC)(UnseenLogOdds))(k) = llr
        }
      }
      val cap = Integer.highestOneBit(math.max(2, byGram.size * 2) * 2 - 1)
      val keys = Array.fill(cap)(-1L)
      val at = new Array[Int](cap)
      val llrs = new Array[Double]((byGram.size + 1) * nC)
      var row = 0
      byGram.forEach { (g, odds) =>
        var s = slot(g, cap)
        while (keys(s) != -1L) s = (s + 1) & (cap - 1)
        keys(s) = g; at(s) = row * nC
        System.arraycopy(odds, 0, llrs, row * nC, nC)
        row += 1
      }
      java.util.Arrays.fill(llrs, row * nC, llrs.length, UnseenLogOdds)
      (keys, at, llrs, row * nC)
    }

    private def slot(key: Long, cap: Int): Int =
      ((key * 0x9E3779B97F4A7C15L) >>> (64 - Integer.numberOfTrailingZeros(cap))).toInt

    /** The row in `llrs` of the packed trigram `key`. */
    private def rowOf(key: Long): Int = {
      var s = slot(key, keys.length)
      while (keys(s) != key && keys(s) != -1L) s = (s + 1) & (keys.length - 1)
      if (keys(s) == key) at(s) else unseenAt
    }

    /** normalized value -> its membership under each classifier, for the
      * values in some classifier's full or training vocabulary.
      */
    private val membership: java.util.HashMap[String, Array[Byte]] = {
      val m = new java.util.HashMap[String, Array[Byte]]()
      def mark(vocab: Set[String], k: Int, member: Byte): Unit =
        vocab.foreach(v => m.computeIfAbsent(v, _ => new Array[Byte](nC))(k) = member)
      classifiers.indices.foreach { k =>
        mark(classifiers(k).fullSet, k, InFull)
        mark(classifiers(k).trainSet, k, InTraining)
      }
      m
    }

    private val nowhere: Array[Byte] = new Array[Byte](nC)

    /** Writes classifier k's score of the value normalized as `norm(t)` into
      * `out(rows(k))(from + t)`, for every t and every k with `mask(rows(k))`.
      * The empty value scores 0.
      */
    def scoresInto(norm: Array[String], from: Int, mask: Array[Boolean], out: Array[Array[Double]]): Unit = {
      val sums = new Array[Double](nC)
      var t = 0
      while (t < norm.length) {
        val v = norm(t); val j = from + t
        if (v.isEmpty) {
          var k = 0
          while (k < nC) { if (mask(rows(k))) out(rows(k))(j) = 0.0; k += 1 }
        } else {
          // The trigrams of "^v$" in order, one per char of v, each packed
          // from the previous one and the next unit.
          java.util.Arrays.fill(sums, 0.0)
          var key = ('^'.toLong << 16) | v.charAt(0)
          var i = 1
          while (i <= v.length) {
            key = ((key << 16) | (if (i < v.length) v.charAt(i) else '$')) & Packed
            val r = rowOf(key)
            var k = 0
            while (k < nC) { sums(k) += llrs(r + k); k += 1 }
            i += 1
          }
          val hash = Det.hashString(v)
          val member = membership.getOrDefault(v, nowhere)
          var k = 0
          while (k < nC) {
            if (mask(rows(k))) out(rows(k))(j) = classifiers(k).scoreOf(hash, v.length, sums(k), member(k))
            k += 1
          }
        }
        t += 1
      }
    }
  }

  /** Character trigrams over "^value$" (boundary-marked). */
  def trigrams(v: String): Seq[String] = {
    val s = "^" + v + "$"
    if (s.length < 3) Seq(s) else (0 until s.length - 2).map(i => s.substring(i, i + 3))
  }

  /** Build a classifier for `domain`, trained on `trainFrac` of its common
    * vocabulary (model families differ in how much of the world they saw).
    */
  def apply(modelName: String, domain: VocabDomain, trainFrac: Double): CtaClassifier = {
    val seed = Det.combine(Det.hashString(modelName), Det.hashString(domain.name))
    val nTrain = math.max(1, math.round(domain.common.size * trainFrac).toInt)
    val trainWords = Det.shuffle(seed, domain.common).take(nTrain)

    // Trigram LLR: log P(g | type) − log P(g | background). The background
    // distribution is approximated as uniform over the trigram space actually
    // observed across this domain, which suffices for a monotone in-type vs
    // out-of-type separation once squashed.
    val counts = scala.collection.mutable.Map.empty[String, Int]
    var total = 0
    trainWords.foreach { w =>
      trigrams(w).foreach { g => counts(g) = counts.getOrElse(g, 0) + 1; total += 1 }
    }
    val vocabSize = math.max(counts.size, 1)
    val bg = 1.0 / (vocabSize * 8.0) // flat, rarer-than-type background mass
    val logOdds = counts.map { case (g, c) =>
      val p = (c + 0.5) / (total + 0.5 * vocabSize)
      g -> math.min(3.0, math.log(p / bg))
    }.toMap

    new CtaClassifier(
      id = s"cta:$modelName:${domain.name}",
      trainSet = trainWords.map(DomainEval.normalize).toSet,
      fullSet = domain.all.map(DomainEval.normalize).toSet,
      triLogOdds = logOdds,
      jitterSeed = seed,
    )
  }

  /** The Sherlock-sim classifier bank: one classifier per NL domain, trained
    * on 70% of each common vocabulary.
    */
  def sherlockBank(domains: Seq[VocabDomain]): IndexedSeq[CtaClassifier] =
    domains.map(d => apply("sherlock", d, 0.70)).toIndexedSeq

  /** The Doduo-sim classifier bank: broader training (95% of common vocab),
    * overlapping type coverage with Sherlock-sim.
    */
  def doduoBank(domains: Seq[VocabDomain]): IndexedSeq[CtaClassifier] =
    domains.map(d => apply("doduo", d, 0.95)).toIndexedSeq
}
