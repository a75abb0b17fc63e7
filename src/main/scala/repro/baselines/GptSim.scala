package repro.baselines

import repro.corpus.TableColumn
import repro.dists.{DomainEval, FunctionEval, Patterns}
import repro.domains.Vocab
import repro.util.Det

/** Simulated GPT-4 error detector (substitute for the OpenAI API, DESIGN §2).
  *
  * Models the behaviour the paper reports for GPT-4 (Sec 6.3): it detects
  * most real errors (typos near known words, placeholder strings, malformed
  * formats) — around 80% recall — but produces many false positives on
  * values outside its "world knowledge" (code-names, abbreviations,
  * proprietary vocabularies), and its confidence is coarse (two levels), so
  * precision plateaus well below 0.8 and F1@P=0.8 is 0.
  *
  * Four prompt variants share the logic and differ in a false-positive
  * multiplier (few-shot/COT reduce hallucinated detections), plus a
  * fine-tuned variant that over-triggers.
  */
final class GptSim(val name: String, fpMult: Double, seed: Long) extends ErrorDetector {

  override def detect(col: TableColumn): Seq[(String, Double)] = {
    val pats = col.values.map(Patterns.generalize)
    val (dominant, domFrac) =
      if (pats.isEmpty) ("", 0.0)
      else { val (p, n) = Patterns.dominant(pats); (p, n.toDouble / pats.size) }
    // Column-level semantics: an LLM reads the whole column and infers its
    // topic, so a known word of a *different* topic stands out ("berlin"
    // among first names).
    val colDomain = GptSim.majorityDomain(col.values)
    col.values.zipWithIndex.flatMap { case (v, i) =>
      val s = Det.combine(seed, Det.hashString(col.colId), Det.hashString(v))
      classify(v, pats(i), dominant, domFrac, colDomain) match {
        case Some((pFlag, conf)) =>
          if (Det.uniform(s) < math.min(1.0, pFlag)) Some((v, conf)) else None
        case None => None
      }
    }
  }

  /** (flag probability, reported confidence) for one value, or None. */
  private def classify(raw: String, pat: String, dominant: String,
                       domFrac: Double, colDomain: Option[String]): Option[(Double, Double)] = {
    val v = DomainEval.normalize(raw)
    if (v.isEmpty) return None
    if (GptSim.metadataSet.contains(v)) return Some((0.92, 0.9)) // recognised placeholder
    val vDomains = GptSim.domainsOf(v)
    if (vDomains.nonEmpty) {
      // Known entity in a column of a different topic → semantic clash.
      colDomain match {
        case Some(cd) if !vDomains.contains(cd) => return Some((0.85, 0.6))
        case _                                  => return Some((0.02 * fpMult, 0.6))
      }
    }
    if (GptSim.knownWords.contains(v)) return Some((0.02 * fpMult, 0.6))
    val toks = v.split("\\s+").filter(_.nonEmpty)
    if (toks.nonEmpty && toks.forall(GptSim.knownWords.contains))
      return Some((0.04 * fpMult, 0.6))
    if (GptSim.isTypoOfKnown(v)) return Some((0.80, 0.9)) // "did you mean ...?"
    // Machine-formatted values: GPT validates well-known formats.
    if (FunctionEval.allEvals.exists(_.distance(v) == 0.0)) {
      return if (domFrac >= 0.8 && pat != dominant) Some((0.55, 0.9)) // format clash in column
             else Some((0.03 * fpMult, 0.6))
    }
    if (domFrac >= 0.8 && pat != dominant) return Some((0.45, 0.6))
    // Unknown word inside a column whose topic GPT recognised: likely wrong.
    if (colDomain.isDefined) return Some((0.55, 0.6))
    // Unknown vocabulary elsewhere: code-names/abbreviations → hallucinated.
    Some((0.20 * fpMult, 0.6))
  }
}

object GptSim {

  /** "World knowledge": every common-head vocabulary word plus tokens. */
  lazy val knownWords: Set[String] = {
    val words = Vocab.nlDomains.flatMap(_.common)
    (words ++ words.flatMap(_.split("\\s+"))).map(DomainEval.normalize).toSet
  }

  lazy val metadataSet: Set[String] = Vocab.metadataStrings.map(DomainEval.normalize).toSet

  /** NL-domain membership of common-head entities ("world knowledge"). */
  lazy val entityDomains: Map[String, Set[String]] = {
    val pairs = for {
      d <- Vocab.nlDomains
      w <- d.common
    } yield (DomainEval.normalize(w), d.name)
    pairs.groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
  }

  def domainsOf(v: String): Set[String] = entityDomains.getOrElse(v, Set.empty)

  /** The column's majority topic, if one clearly dominates. */
  def majorityDomain(values: Seq[String]): Option[String] = {
    if (values.isEmpty) return None
    val counts = scala.collection.mutable.Map.empty[String, Int]
    values.foreach { v =>
      domainsOf(DomainEval.normalize(v)).foreach(d => counts(d) = counts.getOrElse(d, 0) + 1)
    }
    counts.maxByOption(_._2).collect {
      case (d, n) if n.toDouble / values.size >= 0.5 => d
    }
  }

  /** Deletion-1 signatures of the known vocabulary: edit-distance-1 typo
    * lookup in O(len) per value.
    */
  lazy private val delSigs: Set[String] = knownWords.flatMap(sigs)

  private def sigs(w: String): Seq[String] =
    w +: (0 until w.length).map(i => w.substring(0, i) + w.substring(i + 1))

  def isTypoOfKnown(v: String): Boolean =
    !knownWords.contains(v) && v.length >= 3 && sigs(v).exists(delSigs.contains)
}
