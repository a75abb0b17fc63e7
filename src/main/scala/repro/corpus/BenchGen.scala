package repro.corpus

import java.util.Locale

import repro.domains.{Domain, TypoGen, Vocab, VocabDomain}
import repro.util.Det

/** Labelled benchmark generator (substitute for the paper's ST-Bench /
  * RT-Bench — 1200 hand-labelled real columns each, DESIGN §2).
  *
  * Matches the paper's published benchmark shape: 1200 columns, ~3–4% dirty,
  * errors of the typo / incompatible-value / metadata classes, and clean
  * columns deliberately include the Fig 3 trap profiles (uncommon names,
  * mixed-syntax gene codes, specialised id patterns) that produce
  * false-positives for naive per-value detectors.
  */
object BenchGen {

  final case class BenchProfile(
      name: String,
      nCols: Int,
      meanDistinct: Int,
      dirtyFrac: Double,
      seed: Long,
  )

  /** ST-Bench: spreadsheet columns are shorter; 47/1200 dirty in the paper. */
  def stProfile(nCols: Int): BenchProfile =
    BenchProfile("st-bench", nCols, meanDistinct = 12, dirtyFrac = 0.039,
      Det.hashString("st-bench"))

  /** RT-Bench: relational columns are longer; 40/1200 dirty in the paper. */
  def rtProfile(nCols: Int): BenchProfile =
    BenchProfile("rt-bench", nCols, meanDistinct = 22, dirtyFrac = 0.033,
      Det.hashString("rt-bench"))

  // Real spreadsheets are word-heavy: NL domains dominate, with the Fig 3
  // trap domains (mixed-syntax but valid) well represented. A syntax-only
  // detector cannot see most of this benchmark's semantics.
  private val domainWeights: IndexedSeq[(Domain, Double)] = Vocab.all.map { d =>
    val w = d.name match {
      case "gene" | "age_range" | "pay_range" | "web_domain"  => 2.0 // Fig 3 traps
      case "mixed_date" | "product_code" | "note"             => 2.0 // pattern-ambiguous traps
      case _ if !d.isMachine                                  => 3.0 // NL-heavy, as in the wild
      case _                                                  => 1.0
    }
    (d: Domain, w)
  }

  def genColumn(profile: BenchProfile, idx: Int): TableColumn = {
    val s = Det.combine(profile.seed, idx.toLong)
    val domain = Det.pickWeighted(Det.combine(s, 1), domainWeights)
    val spread = 0.4 + 1.4 * Det.uniform(Det.combine(s, 2))
    val nDistinct = math.max(5, math.round(profile.meanDistinct * spread).toInt)
    var values = CorpusGen.drawColumnValues(domain, nDistinct, Det.combine(s, 3))
    var errors = Vector.empty[String]
    if (Det.uniform(Det.combine(s, 4)) < profile.dirtyFrac) {
      val nErr = 1 + Det.nextInt(Det.combine(s, 5), 2)
      (0 until nErr).foreach { e =>
        val err = CorpusGen.genError(domain, values, Det.combine(s, 6, e.toLong))
        if (!values.contains(err)) { values = values :+ err; errors = errors :+ err }
      }
    }
    TableColumn(s"${profile.name}-c$idx", domain.name, values, errors,
      values.size.toLong * 4)
  }

  def generate(profile: BenchProfile): Seq[TableColumn] =
    (0 until profile.nCols).map(i => genColumn(profile, i))

  /** Table 4's "+k% syn err." setting: on top of the real errors, inject
    * synthetic errors into ~rate of values per column, sampled from columns
    * of *other* domains (the paper samples from other columns; restricting
    * to other domains keeps the injected value a genuine error).
    */
  def withSyntheticErrors(cols: Seq[TableColumn], rate: Double, seed: Long): Seq[TableColumn] = {
    // Source columns are sampled uniformly (as the paper samples "values
    // randomly sampled from other columns") — NOT uniformly over domains,
    // which would over-represent rare machine domains and make injections
    // syntactically obvious.
    val sources: IndexedSeq[TableColumn] = cols.toIndexedSeq
    cols.zipWithIndex.map { case (c, i) =>
      val s = Det.combine(seed, i.toLong)
      val frac = rate * c.values.size - math.floor(rate * c.values.size)
      val nInject = math.floor(rate * c.values.size).toInt +
        (if (Det.uniform(Det.combine(s, 0)) < frac) 1 else 0)
      var values = c.values.toVector
      var errors = c.errors.toVector
      var added = 0
      var attempt = 0
      while (added < nInject && attempt < nInject * 12 + 12) {
        val src = sources(Det.nextInt(Det.combine(s, 1, attempt.toLong), sources.size))
        if (src.domainTag != c.domainTag && src.values.nonEmpty) {
          val pool = src.values.filterNot(src.errors.contains)
          if (pool.nonEmpty) {
            val v = pool(Det.nextInt(Det.combine(s, 2, attempt.toLong), pool.size))
            if (!values.contains(v) && !isValidIn(c.domainTag, v)) {
              values = values :+ v; errors = errors :+ v; added += 1
            }
          }
        }
        attempt += 1
      }
      c.copy(values = values, errors = errors)
    }
  }

  /** Guard against cross-domain injections that are accidentally valid in the
    * target domain (e.g. "georgia" is both a state and a country).
    */
  private def isValidIn(domainTag: String, v: String): Boolean =
    Vocab.byName.get(domainTag) match {
      case Some(vd: VocabDomain) => vd.all.contains(v.toLowerCase(Locale.ROOT))
      case _                     => false
    }
}
