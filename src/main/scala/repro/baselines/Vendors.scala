package repro.baselines

import repro.corpus.TableColumn
import repro.dists.{DomainEval, Patterns}
import repro.domains.Vocab

/** Simulated commercial end-user detectors (paper Sec 6.2 Vendor-A/B,
  * DESIGN §2). Both are conservative single-confidence heuristics, which is
  * why the paper reports them near zero on its benchmarks.
  */
object Vendors {

  /** Vendor-A: strict dominant-pattern check — flags minority-pattern values
    * only when one pattern covers >= 95% of a reasonably long column.
    */
  final class VendorA extends ErrorDetector {
    override val name = "Vendor-A"
    override def detect(col: TableColumn): Seq[(String, Double)] = {
      if (col.values.size < 10) return Seq.empty
      val pats = col.values.map(Patterns.generalize)
      val (dominant, nDom) = Patterns.dominant(pats)
      if (nDom.toDouble / col.values.size < 0.95) return Seq.empty
      col.values.indices.collect { case i if pats(i) != dominant => (col.values(i), 0.5) }
    }
  }

  /** Vendor-B: dictionary spell-check — flags one-edit corruptions of
    * dictionary words and placeholders, but (like real spell-checkers on
    * tabular data) also flags a slice of out-of-dictionary words it has
    * never seen, which floods it with false positives on names/codes.
    */
  final class VendorB extends ErrorDetector {
    override val name = "Vendor-B"
    override def detect(col: TableColumn): Seq[(String, Double)] = {
      col.values.flatMap { v =>
        val nv = DomainEval.normalize(v)
        val oovWordy = !GptSim.knownWords.contains(nv) && nv.nonEmpty &&
          nv.forall(c => c.isLetter || c == ' ') && !GptSim.isTypoOfKnown(nv)
        if (Vendors.placeholders.contains(nv)) Some((v, 0.5))
        else if (GptSim.isTypoOfKnown(nv) && nv.forall(c => c.isLetter || c == ' ')) Some((v, 0.5))
        else if (oovWordy &&
          repro.util.Det.uniform(repro.util.Det.combine(0x5bL, repro.util.Det.hashString(nv))) < 0.25)
          Some((v, 0.5)) // "not in dictionary"
        else None
      }
    }
  }

  lazy val placeholders: Set[String] =
    Vocab.metadataStrings.map(DomainEval.normalize).toSet -- Set("total", "various", "none")
}
