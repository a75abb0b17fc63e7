package repro.baselines

import repro.corpus.TableColumn
import repro.dists.DomainEval
import repro.domains.Vocab

/** Katara-style KB-mapping detector (paper Sec 6.2, [21]).
  *
  * Maps a column to a knowledge-base type by value overlap against the KB
  * (here: the common heads of the NL domains, i.e. what a curated KB like
  * YAGO would contain), using a *static* threshold (half the column's
  * values), then flags values absent from the KB. Uncalibrated by
  * construction — valid-but-uncommon entities are not in the KB and become
  * false positives, which is why the paper reports Katara near zero.
  */
final class Katara extends ErrorDetector {

  override val name = "Katara"

  override def detect(col: TableColumn): Seq[(String, Double)] = {
    if (col.values.isEmpty) return Seq.empty
    val normed = col.values.map(DomainEval.normalize)
    val best = Katara.kb.maxByOption { case (_, entities) =>
      normed.count(entities.contains)
    }
    best match {
      case Some((_, entities)) if normed.count(entities.contains).toDouble / normed.size >= 0.5 =>
        col.values.zip(normed).collect {
          case (v, nv) if !entities.contains(nv) => (v, 0.5) // single confidence level
        }
      case _ => Seq.empty
    }
  }
}

object Katara {
  /** KB: domain name -> known entities (common heads only). */
  lazy val kb: Map[String, Set[String]] =
    Vocab.nlDomains.map(d => d.name -> d.common.map(DomainEval.normalize).toSet).toMap
}
