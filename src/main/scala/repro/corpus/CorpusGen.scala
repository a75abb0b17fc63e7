package repro.corpus

import java.util.Locale

import repro.domains.{Domain, TypoGen, Vocab, VocabDomain}
import repro.util.Det

/** Training-corpus generator (substitute for the paper's Relational-Tables /
  * Spreadsheet-Tables / TabLib crawls, DESIGN §2).
  *
  * The three profiles reproduce the *relative* characteristics of paper
  * Table 3 that drive its results: Relational-Tables has long, clean,
  * machine-extracted columns; Spreadsheet-Tables is short, human-made and
  * noisier (which degrades learned SDCs — Table 6 / Appendix A); TabLib is
  * large and mixed. Absolute sizes are parameters.
  */
object CorpusGen {

  /** Generation profile for one corpus. */
  final case class Profile(
      name: String,
      nCols: Int,
      /** median distinct values per column (log-normal sizes) */
      medianDistinct: Int,
      /** log-normal sigma: right-skew of the distinct-count distribution */
      logSigma: Double,
      /** duplication factor: total vals ≈ distinct × dupFactor */
      dupFactor: Double,
      /** fraction of columns containing one (unlabelled) real error */
      noiseRate: Double,
      seed: Long,
  )

  // Distinct-count distributions follow Table 3: *medians* of 14-18 with
  // heavily right-skewed means (Relational mean 96 / median 18). Both tails
  // are load-bearing: long columns expose rare-but-valid values (multiword
  // names, decimal units) so the statistical tests reject over-general
  // rules, while short columns in C_syn force the selection step to keep
  // robust low-m rule variants.
  def relationalProfile(nCols: Int): Profile =
    Profile("relational-tables", nCols, medianDistinct = 18, logSigma = 1.30,
      dupFactor = 75.0, noiseRate = 0.01, seed = Det.hashString("relational-tables"))

  def spreadsheetProfile(nCols: Int): Profile =
    Profile("spreadsheet-tables", nCols, medianDistinct = 14, logSigma = 0.85,
      dupFactor = 10.0, noiseRate = 0.06, seed = Det.hashString("spreadsheet-tables"))

  def tablibProfile(nCols: Int): Profile =
    Profile("tablib", nCols, medianDistinct = 14, logSigma = 1.30,
      dupFactor = 6.0, noiseRate = 0.02, seed = Det.hashString("tablib"))

  /** Domain pool with draw weights: popular domains (city, names, ids, dates)
    * recur across many columns, as in web corpora.
    */
  private val domainWeights: IndexedSeq[(Domain, Double)] = Vocab.all.map { d =>
    val w = d.name match {
      case "city" | "first_name" | "last_name" | "full_name" | "date" | "alnum_id" => 3.0
      case "country" | "state_code" | "state_name" | "month" | "url" | "zip"       => 2.0
      case "mixed_date" | "product_code" | "note"                                  => 1.5
      case _                                                                        => 1.0
    }
    (d: Domain, w)
  }

  /** Real-table case heterogeneity: NL values appear as "seattle",
    * "Seattle" or "SEATTLE" in the wild. Domain evaluators normalise case
    * (DomainEval.normalize), but detectors operating on raw local syntax
    * features do not get that luxury — exactly as in real data.
    */
  def caseJitter(v: String, seed: Long): String = {
    val u = Det.uniform(Det.combine(seed, 0xcafeL))
    if (u < 0.22) titleCase(v)
    else if (u < 0.30) v.toUpperCase(Locale.ROOT)
    else v
  }

  /** Upper-case the first char of every space-separated word and drop
    * trailing spaces, as `v.split(' ')` then `mkString(" ")` would.
    */
  private def titleCase(v: String): String = {
    var end = v.length
    while (end > 0 && v.charAt(end - 1) == ' ') end -= 1
    val out = new Array[Char](end)
    var i = 0
    while (i < end) {
      val c = v.charAt(i)
      out(i) = if (i == 0 || v.charAt(i - 1) == ' ') c.toUpper else c
      i += 1
    }
    new String(out)
  }

  /** Draw `n` distinct values from `domain` (best-effort for tiny vocabs). */
  def drawColumnValues(domain: Domain, n: Int, seed: Long): Vector[String] = {
    val out = scala.collection.mutable.LinkedHashSet.empty[String]
    var attempt = 0
    val maxAttempts = n * 12 + 40
    while (out.size < n && attempt < maxAttempts) {
      val raw = domain.draw(Det.combine(seed, attempt.toLong))
      out += (if (domain.isMachine) raw else caseJitter(raw, Det.combine(seed, Det.hashString(raw))))
      attempt += 1
    }
    out.toVector
  }

  /** One corpus column; if `withError`, a single typo or incompatible value
    * is appended (corpora are ~98% clean — paper Sec 5.2).
    */
  def genColumn(profile: Profile, idx: Int): TableColumn = {
    val s = Det.combine(profile.seed, idx.toLong)
    val domain = Det.pickWeighted(Det.combine(s, 1), domainWeights)
    // Log-normal column sizes (capped): median medianDistinct, long tail.
    val nDistinct = math.min(400, math.max(4, math.round(
      profile.medianDistinct * math.exp(profile.logSigma * Det.gaussian(Det.combine(s, 2)))).toInt))
    var values = drawColumnValues(domain, nDistinct, Det.combine(s, 3))
    val withError = Det.uniform(Det.combine(s, 4)) < profile.noiseRate
    var errors = Vector.empty[String]
    if (withError) {
      val err = genError(domain, values, Det.combine(s, 5))
      if (!values.contains(err)) {
        values = values :+ err
        errors = Vector(err)
      }
    }
    val nTotal = math.max(values.size.toLong,
      math.round(values.size * profile.dupFactor * (0.5 + Det.uniform(Det.combine(s, 6)))))
    TableColumn(s"${profile.name}-c$idx", domain.name, values, errors, nTotal)
  }

  /** A typo of an in-column value, an out-of-domain value, or a metadata
    * string — the paper's error classes (Fig 2).
    */
  def genError(domain: Domain, values: Vector[String], seed: Long): String = {
    val validSet: Set[String] = domain match {
      case v: VocabDomain => v.all.toSet
      case _              => values.toSet
    }
    Det.nextInt(Det.combine(seed, 1), 10) match {
      case k if k < 5 => // typo of a value occurring in this column
        TypoGen.typoAvoiding(Det.pick(Det.combine(seed, 2), values), Det.combine(seed, 3), validSet)
      case k if k < 8 => // semantically incompatible: a value of another domain
        val others = Vocab.all.filterNot(_.name == domain.name)
        Det.pick(Det.combine(seed, 4), others).draw(Det.combine(seed, 5))
      case _ => // metadata/placeholder string
        Det.pick(Det.combine(seed, 6), Vocab.metadataStrings)
    }
  }

  /** Generate a full corpus for the profile. */
  def generate(profile: Profile): Seq[TableColumn] =
    (0 until profile.nCols).map(i => genColumn(profile, i))
}
