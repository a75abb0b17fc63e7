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
    alone.scoresInto(Array(raw), 0, 1, Array(true), out)
    out(0)(0)
  }

  override def distance(v: String): Double = 1.0 - score(v)

  /** Score of the value with features `f`, whose trigrams' log-odds under
    * this classifier sum to `llrSum` and whose vocabulary membership under
    * it is `member` ([[CtaClassifier.InTraining]], [[CtaClassifier.InFull]]
    * or 0).
    */
  private def scoreOf(f: CtaClassifier.Features, llrSum: Double, member: Byte): Double = {
    if (f.value.isEmpty) return 0.0
    val base =
      if (member == CtaClassifier.InTraining) 0.85 + 0.13 * Det.uniform(Det.combine(jitterSeed, f.hash))
      else if (member == CtaClassifier.InFull) 0.45 + 0.30 * Det.uniform(Det.combine(jitterSeed, 0x2, f.hash))
      else 0.5 * (1.0 / (1.0 + math.exp(-(llrSum / f.grams.length)))) // logistic squash of the mean trigram LLR
    // Per-value calibration noise: real neural CTA classifiers are not
    // cleanly banded per value, which is what defeats naive per-value
    // z-score thresholding (Example 2).
    val noise = 0.16 * (Det.uniform(Det.combine(jitterSeed, 0x3, f.hash)) - 0.5)
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

  /** What every classifier reads of a value: its normalized form, that
    * form's hash and its trigrams (none for the empty value, which scores 0).
    */
  private final class Features(val value: String, val hash: Long, val grams: Array[String])

  private def features(raw: String): Features = {
    val v = DomainEval.normalize(raw)
    if (v.isEmpty) new Features(v, 0L, Array.empty)
    else new Features(v, Det.hashString(v), gramArray(v))
  }

  /** Classifiers scored together: each value's [[Features]] are computed
    * once, and its vocabulary membership and each of its trigrams are looked
    * up once for all of them.
    * Every score, a single classifier's included, is computed here.
    * Classifier k's scores go to row `rows(k)` of the caller's matrix.
    */
  private[dists] final class Bank(classifiers: IndexedSeq[CtaClassifier], rows: Array[Int]) {

    /** trigram -> its log-odds under each classifier, [[UnseenLogOdds]]
      * where that classifier never saw it.
      */
    private val logOdds: java.util.HashMap[String, Array[Double]] = {
      val m = new java.util.HashMap[String, Array[Double]]()
      classifiers.indices.foreach { k =>
        classifiers(k).triLogOdds.foreach { case (g, llr) =>
          m.computeIfAbsent(g, _ => Array.fill(classifiers.size)(UnseenLogOdds))(k) = llr
        }
      }
      m
    }

    private val unseen: Array[Double] = Array.fill(classifiers.size)(UnseenLogOdds)

    /** normalized value -> its membership under each classifier, for the
      * values in some classifier's full or training vocabulary.
      */
    private val membership: java.util.HashMap[String, Array[Byte]] = {
      val m = new java.util.HashMap[String, Array[Byte]]()
      def mark(vocab: Set[String], k: Int, member: Byte): Unit =
        vocab.foreach(v => m.computeIfAbsent(v, _ => new Array[Byte](classifiers.size))(k) = member)
      classifiers.indices.foreach { k =>
        mark(classifiers(k).fullSet, k, InFull)
        mark(classifiers(k).trainSet, k, InTraining)
      }
      m
    }

    private val nowhere: Array[Byte] = new Array[Byte](classifiers.size)

    /** Writes classifier k's score of `values(j)` into `out(rows(k))(j)`,
      * for every j in [from, until) and every k with `mask(rows(k))`.
      */
    def scoresInto(values: Array[String], from: Int, until: Int, mask: Array[Boolean],
                   out: Array[Array[Double]]): Unit = {
      val sums = new Array[Double](classifiers.size)
      var j = from
      while (j < until) {
        val f = features(values(j))
        java.util.Arrays.fill(sums, 0.0)
        var g = 0
        while (g < f.grams.length) {
          val llr = logOdds.getOrDefault(f.grams(g), unseen)
          var k = 0
          while (k < sums.length) { sums(k) += llr(k); k += 1 }
          g += 1
        }
        val member = membership.getOrDefault(f.value, nowhere)
        var k = 0
        while (k < sums.length) {
          if (mask(rows(k))) out(rows(k))(j) = classifiers(k).scoreOf(f, sums(k), member(k))
          k += 1
        }
        j += 1
      }
    }
  }

  /** Character trigrams over "^value$" (boundary-marked). */
  def trigrams(v: String): Seq[String] = scala.collection.immutable.ArraySeq.unsafeWrapArray(gramArray(v))

  private def gramArray(v: String): Array[String] = {
    val s = "^" + v + "$"
    if (s.length < 3) Array(s)
    else {
      val out = new Array[String](s.length - 2)
      var i = 0
      while (i < out.length) { out(i) = s.substring(i, i + 3); i += 1 }
      out
    }
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
