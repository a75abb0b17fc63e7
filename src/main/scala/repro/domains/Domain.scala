package repro.domains

import repro.util.Det

/** A semantic domain: the (possibly unbounded) set of valid values a table
  * column of that semantics may contain.
  *
  * Two flavours mirror the paper's split of column-type detection methods
  * (Sec 3): natural-language domains are finite vocabularies with a *common*
  * head (in every model's training vocab) and an *uncommon* tail (valid but
  * OOV for weaker models — the "omayra" effect in Example 2), while
  * machine-generated domains are pattern-structured generators (ids, dates,
  * urls, ...), unbounded but syntactically regular.
  */
sealed trait Domain {
  /** Stable lowercase identifier, e.g. "city". */
  def name: String

  /** Draw one valid value, deterministically from the seed. */
  def draw(seed: Long): String

  /** True for machine-generated/pattern-structured domains. */
  def isMachine: Boolean
}

/** Finite-vocabulary natural-language domain.
  *
  * `common` values dominate draws (zipf with exponent 0.9 over the
  * concatenated vocab), so a realistic column holds mostly common values
  * with an occasional uncommon one — exactly the distribution that makes
  * naive per-value scoring produce false positives.
  */
final case class VocabDomain(
    name: String,
    common: IndexedSeq[String],
    uncommon: IndexedSeq[String],
) extends Domain {
  require(common.nonEmpty, s"domain $name needs a non-empty common vocab")

  val all: IndexedSeq[String] = common ++ uncommon

  private val ranks = new Det.Zipf(all.length, VocabDomain.ZipfAlpha)

  override def isMachine: Boolean = false

  override def draw(seed: Long): String = all(ranks.draw(seed))
}

object VocabDomain {
  val ZipfAlpha = 0.9
}

/** Machine-generated domain: values produced by a deterministic generator. */
final case class GenDomain(name: String, gen: Long => String) extends Domain {
  override def isMachine: Boolean = true
  override def draw(seed: Long): String = gen(seed)
}
