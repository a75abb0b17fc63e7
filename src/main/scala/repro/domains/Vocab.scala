package repro.domains

import repro.util.Det

/** Built-in semantic domains used by the data substrate.
  *
  * Natural-language domains use real head vocabularies (months, states,
  * countries, common names/cities) plus deterministic synthesized tails, so
  * that the paper's running examples ("january", "seattle", "liechtenstein")
  * are actual members and the uncommon-but-valid trap values ("omayra",
  * "shakopee"-style) exist. Machine domains generate values under the exact
  * syntactic patterns the paper's Figures 2/3 show (tt0054215-style ids,
  * "12 oz" units, fy17 fiscal years, urls, dates, ...).
  */
object Vocab {

  // ---------------------------------------------------------------- NL heads

  val months: IndexedSeq[String] = IndexedSeq(
    "january", "february", "march", "april", "may", "june",
    "july", "august", "september", "october", "november", "december")

  val weekdays: IndexedSeq[String] = IndexedSeq(
    "monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday")

  val stateCodes: IndexedSeq[String] = IndexedSeq(
    "al", "ak", "az", "ar", "ca", "co", "ct", "de", "fl", "ga", "hi", "id",
    "il", "in", "ia", "ks", "ky", "la", "me", "md", "ma", "mi", "mn", "ms",
    "mo", "mt", "ne", "nv", "nh", "nj", "nm", "ny", "nc", "nd", "oh", "ok",
    "or", "pa", "ri", "sc", "sd", "tn", "tx", "ut", "vt", "va", "wa", "wv",
    "wi", "wy")

  val stateNames: IndexedSeq[String] = IndexedSeq(
    "alabama", "alaska", "arizona", "arkansas", "california", "colorado",
    "connecticut", "delaware", "florida", "georgia", "hawaii", "idaho",
    "illinois", "indiana", "iowa", "kansas", "kentucky", "louisiana", "maine",
    "maryland", "massachusetts", "michigan", "minnesota", "mississippi",
    "missouri", "montana", "nebraska", "nevada", "new hampshire", "new jersey",
    "new mexico", "new york", "north carolina", "north dakota", "ohio",
    "oklahoma", "oregon", "pennsylvania", "rhode island", "south carolina",
    "south dakota", "tennessee", "texas", "utah", "vermont", "virginia",
    "washington", "west virginia", "wisconsin", "wyoming")

  val countriesCommon: IndexedSeq[String] = IndexedSeq(
    "germany", "france", "italy", "spain", "portugal", "austria",
    "switzerland", "belgium", "netherlands", "denmark", "norway", "sweden",
    "finland", "poland", "ireland", "greece", "turkey", "russia", "china",
    "japan", "india", "brazil", "canada", "mexico", "argentina", "chile",
    "australia", "egypt", "kenya", "nigeria", "morocco", "thailand",
    "vietnam", "indonesia", "malaysia", "singapore", "philippines", "peru",
    "colombia", "venezuela", "ukraine", "romania", "hungary", "bulgaria",
    "croatia", "serbia", "slovakia", "slovenia", "estonia", "latvia")

  val countriesUncommon: IndexedSeq[String] = IndexedSeq(
    "liechtenstein", "luxembourg", "andorra", "monaco", "san marino",
    "montenegro", "moldova", "belarus", "armenia", "azerbaijan", "georgia",
    "kazakhstan", "uzbekistan", "kyrgyzstan", "tajikistan", "turkmenistan",
    "bhutan", "brunei", "laos", "cambodia", "myanmar", "nepal", "sri lanka",
    "maldives", "fiji", "vanuatu", "samoa", "tonga", "palau", "kiribati",
    "eritrea", "djibouti", "comoros", "lesotho", "eswatini", "gabon",
    "benin", "togo", "burkina faso", "mauritania", "suriname", "guyana",
    "belize", "dominica", "grenada", "saint lucia", "barbados", "bahamas")

  val citiesCommon: IndexedSeq[String] = IndexedSeq(
    "seattle", "chicago", "boston", "denver", "phoenix", "dallas", "houston",
    "austin", "atlanta", "miami", "orlando", "tampa", "detroit", "cleveland",
    "columbus", "cincinnati", "pittsburgh", "philadelphia", "baltimore",
    "richmond", "charlotte", "raleigh", "nashville", "memphis", "louisville",
    "indianapolis", "milwaukee", "madison", "minneapolis", "saint paul",
    "omaha", "tulsa", "wichita", "portland", "sacramento", "oakland",
    "berkeley", "pasadena", "tucson", "albuquerque", "boise", "spokane",
    "tacoma", "eugene", "reno", "provo", "anchorage", "honolulu", "london",
    "paris", "berlin", "madrid", "rome", "vienna", "zurich", "munich",
    "hamburg", "dortmund", "amsterdam", "brussels", "dublin", "toronto")

  val colors: IndexedSeq[String] = IndexedSeq(
    "red", "green", "blue", "yellow", "orange", "purple", "pink", "brown",
    "black", "white", "gray", "cyan", "magenta", "maroon", "olive", "navy",
    "teal", "silver", "gold", "beige")

  val firstNamesCommon: IndexedSeq[String] = IndexedSeq(
    "james", "mary", "john", "patricia", "robert", "jennifer", "michael",
    "linda", "william", "elizabeth", "david", "barbara", "richard", "susan",
    "joseph", "jessica", "thomas", "sarah", "charles", "karen", "daniel",
    "nancy", "matthew", "lisa", "anthony", "betty", "mark", "margaret",
    "paul", "sandra", "steven", "ashley", "andrew", "kimberly", "kenneth",
    "emily", "joshua", "donna", "kevin", "michelle", "brian", "dorothy",
    "george", "carol", "edward", "amanda", "ronald", "melissa", "timothy",
    "deborah", "aaron", "bruce", "angie", "david", "vicky", "hunter", "erik",
    "robin", "ross", "nelson")

  val lastNamesCommon: IndexedSeq[String] = IndexedSeq(
    "smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
    "davis", "rodriguez", "martinez", "hernandez", "lopez", "gonzalez",
    "wilson", "anderson", "thomas", "taylor", "moore", "jackson", "martin",
    "lee", "perez", "thompson", "white", "harris", "sanchez", "clark",
    "ramirez", "lewis", "robinson", "walker", "young", "allen", "king",
    "wright", "scott", "torres", "nguyen", "hill", "flores", "green",
    "adams", "nelson", "baker", "hall", "rivera", "campbell", "mitchell",
    "carter", "roberts", "dominguez", "munoz", "romero", "rubio", "jimenez")

  val soccerPositions: IndexedSeq[String] = IndexedSeq(
    "goalkeeper", "defender", "midfield", "midfielder", "forward", "striker",
    "winger", "fullback", "centre back", "sweeper", "attacking midfielder",
    "defensive midfielder", "left back", "right back", "wing back")

  val facilityTypes: IndexedSeq[String] = IndexedSeq(
    "restaurant", "school", "grocery store", "bakery", "catering",
    "daycare", "hospital", "cafeteria", "mobile food vendor", "tavern",
    "liquor store", "gas station", "convenience store", "shelter",
    "golden diner", "long term care", "wholesale", "banquet hall")

  /** Metadata/placeholder strings that leak into real data columns and are
    * the paper's "semantically incompatible" error class (Fig 2: "new
    * facility", "fy definition").
    */
  val metadataStrings: IndexedSeq[String] = IndexedSeq(
    "n/a", "nan", "null", "none", "empty", "unknown", "missing", "tbd",
    "see notes", "new facility", "fy definition", "not applicable", "total",
    "subtotal", "sample_size", "dummy_type", "pending review", "various",
    "all of the above", "do not use")

  // --------------------------------------------------------- synthetic tails

  private val onsets  = IndexedSeq("b", "br", "c", "ch", "d", "f", "g", "gr",
    "h", "j", "k", "kl", "l", "m", "n", "p", "pr", "r", "s", "sh", "st", "t",
    "tr", "v", "w", "y", "z")
  private val vowels  = IndexedSeq("a", "e", "i", "o", "u", "ai", "ea", "io", "ou")
  private val codas   = IndexedSeq("", "n", "r", "s", "t", "l", "k", "m", "nd", "rt", "ck")

  /** Deterministic pronounceable word of 2-4 syllables ("mankato" style). */
  def synthWord(seed: Long, minSyl: Int = 2, maxSyl: Int = 4): String = {
    val nSyl = minSyl + Det.nextInt(Det.combine(seed, 0x10), maxSyl - minSyl + 1)
    val sb = new StringBuilder
    var i = 0
    while (i < nSyl) {
      val s = Det.combine(seed, i.toLong)
      sb.append(Det.pick(Det.combine(s, 1), onsets))
      sb.append(Det.pick(Det.combine(s, 2), vowels))
      if (i == nSyl - 1 || Det.uniform(Det.combine(s, 3)) < 0.4)
        sb.append(Det.pick(Det.combine(s, 4), codas))
      i += 1
    }
    sb.toString
  }

  private def synthTail(tag: String, n: Int, minSyl: Int = 2, maxSyl: Int = 4): IndexedSeq[String] = {
    val base = Det.hashString(tag)
    (0 until n).map(i => synthWord(Det.combine(base, i.toLong), minSyl, maxSyl)).distinct.toIndexedSeq
  }

  // ------------------------------------------------------ machine generators

  /** `n` in decimal, left-padded with zeros to `width` characters after any
    * sign, as `%0<width>d` formats it.
    */
  def zeroPad(n: Int, width: Int): String = {
    val digits = Integer.toString(n)
    val zeros = "0" * (width - digits.length)
    if (n < 0) "-" + zeros + digits.substring(1) else zeros + digits
  }

  def genDate(seed: Long): String = {
    val m = 1 + Det.nextInt(Det.combine(seed, 1), 12)
    val d = 1 + Det.nextInt(Det.combine(seed, 2), 28)
    val y = 1990 + Det.nextInt(Det.combine(seed, 3), 35)
    s"$m/$d/$y"
  }

  def genIsoDate(seed: Long): String = {
    val m = 1 + Det.nextInt(Det.combine(seed, 1), 12)
    val d = 1 + Det.nextInt(Det.combine(seed, 2), 28)
    val y = 1990 + Det.nextInt(Det.combine(seed, 3), 35)
    s"${zeroPad(y, 4)}-${zeroPad(m, 2)}-${zeroPad(d, 2)}"
  }

  def genTime(seed: Long): String = {
    val h = Det.nextInt(Det.combine(seed, 1), 24)
    val m = Det.nextInt(Det.combine(seed, 2), 60)
    val s = Det.nextInt(Det.combine(seed, 3), 60)
    s"${zeroPad(h, 2)}:${zeroPad(m, 2)}:${zeroPad(s, 2)}"
  }

  def genUrl(seed: Long): String = {
    val host = synthWord(Det.combine(seed, 1), 2, 3)
    val tld  = Det.pick(Det.combine(seed, 2), IndexedSeq("com", "org", "net", "io"))
    val path = synthWord(Det.combine(seed, 3), 1, 2)
    val id   = Det.nextInt(Det.combine(seed, 4), 1000000)
    s"https://www.$host.$tld/$path/$id"
  }

  def genWebDomain(seed: Long): String = {
    val host = synthWord(Det.combine(seed, 1), 2, 3)
    val tld  = Det.pick(Det.combine(seed, 2), IndexedSeq("com", "org", "net", "io", "info", "com.hk"))
    s"$host.$tld"
  }

  def genEmail(seed: Long): String = {
    val user = synthWord(Det.combine(seed, 1), 2, 3)
    val host = synthWord(Det.combine(seed, 2), 2, 2)
    val tld  = Det.pick(Det.combine(seed, 3), IndexedSeq("com", "org", "net"))
    s"$user@$host.$tld"
  }

  def genIp(seed: Long): String =
    (1 to 4).map(i => Det.nextInt(Det.combine(seed, i.toLong), 256)).mkString(".")

  /** Luhn-valid 16-digit credit-card number. */
  def genCreditCard(seed: Long): String = {
    val digits = Array.tabulate(15)(i => Det.nextInt(Det.combine(seed, i.toLong), 10))
    // Compute the Luhn check digit for the 15-digit prefix.
    var sum = 0
    for (i <- digits.indices) {
      // Position from the right of the final 16-digit number: 15-i ⇒ doubled
      // positions are those at even index here.
      val fromRight = 15 - i // 1-based offset of check digit is 0
      var d = digits(i)
      if (fromRight % 2 == 1) { d *= 2; if (d > 9) d -= 9 }
      sum += d
    }
    val check = (10 - (sum % 10)) % 10
    digits.mkString + check.toString
  }

  def genFiscalYear(seed: Long): String = "fy" + zeroPad(10 + Det.nextInt(seed, 20), 2)

  def genUnit(seed: Long): String = {
    // ~12% decimal quantities: Fig 2's C6 mixes "12 oz" with "9.8 oz".
    val q =
      if (Det.uniform(Det.combine(seed, 0x9)) < 0.12)
        s"${Det.nextInt(Det.combine(seed, 1), 64) + 1}.${1 + Det.nextInt(Det.combine(seed, 4), 9)}"
      else (Det.nextInt(Det.combine(seed, 1), 64) + 1).toString
    val u = Det.pick(Det.combine(seed, 2), IndexedSeq("oz", "lb", "kg", "g", "ml", "l"))
    s"$q $u"
  }

  /** "[a-z]+\d+"-style identifier (movie ids, contract numbers). */
  def genAlphaNumId(seed: Long): String = {
    val p = Det.pick(Det.combine(seed, 1), IndexedSeq("tt", "b", "num", "id", "po", "inv"))
    val w = 5 + Det.nextInt(Det.combine(seed, 2), 4)
    val n = Det.nextInt(Det.combine(seed, 3), 10000000)
    p + zeroPad(n, w)
  }

  def genAgeRange(seed: Long): String = {
    val lo = 5 * (1 + Det.nextInt(Det.combine(seed, 1), 12))
    val hi = lo + 4 + 5 * Det.nextInt(Det.combine(seed, 2), 3)
    s"$lo-$hi"
  }

  def genPayRange(seed: Long): String = {
    val lo = 50 * (1 + Det.nextInt(Det.combine(seed, 1), 10))
    s"$$${lo}-${lo + 50}k"
  }

  def genZip(seed: Long): String = zeroPad(Det.nextInt(seed, 100000), 5)

  def genPhone(seed: Long): String = {
    val a = 200 + Det.nextInt(Det.combine(seed, 1), 800)
    val b = 100 + Det.nextInt(Det.combine(seed, 2), 900)
    val c = Det.nextInt(Det.combine(seed, 3), 10000)
    s"$a-$b-${zeroPad(c, 4)}"
  }

  /** Gene-code-style values with *mixed* syntax (SOCS4, RP11-6L6.2, PRCP):
    * the Fig 3 trap where no single pattern dominates but the column is valid.
    */
  def genGene(seed: Long): String = {
    val style = Det.nextInt(Det.combine(seed, 0), 3)
    val letters = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    def ch(i: Int) = letters(Det.nextInt(Det.combine(seed, 100 + i.toLong), 26))
    style match {
      case 0 => (0 until 3 + Det.nextInt(Det.combine(seed, 1), 3)).map(ch).mkString +
                Det.nextInt(Det.combine(seed, 2), 10)
      case 1 => s"RP11-${Det.nextInt(Det.combine(seed, 3), 999)}${ch(0)}${Det.nextInt(Det.combine(seed, 4), 9)}.${Det.nextInt(Det.combine(seed, 5), 9)}"
      case _ => (0 until 4 + Det.nextInt(Det.combine(seed, 6), 3)).map(ch).mkString
    }
  }

  def genDuration(seed: Long): String = s"${60 + Det.nextInt(seed, 120)} min"

  def genSampleCount(seed: Long): String = s"${Det.nextInt(seed, 500)} patients"

  /** Date column mixing two valid formats (M/d/yyyy and yyyy-MM-dd): a
    * realistic trap where the dominant *pattern* is ambiguous but a
    * validation *function* still covers the whole column.
    */
  def genMixedDate(seed: Long): String =
    if (Det.uniform(Det.combine(seed, 0x3d)) < 0.88) genDate(seed) else genIsoDate(seed)

  /** Product codes with several co-existing valid formats ("ab-123", "ab123",
    * "12-345-x"): no pattern dominates, so pattern-only detectors misfire.
    */
  def genProductCode(seed: Long): String = {
    val w = synthWord(Det.combine(seed, 1), 1, 2)
    val n = Det.nextInt(Det.combine(seed, 2), 1000)
    // High-dominance format mix (85/10/5): the minority formats are valid,
    // so dominant-pattern detectors flag them with high confidence.
    val u = Det.uniform(Det.combine(seed, 3))
    if (u < 0.85) s"$w-$n"
    else if (u < 0.95) s"$w$n"
    else s"$n-$w"
  }

  /** Free-text note phrases (2-5 synthesized words): valid values with
    * varying token counts — the classic false-positive source for
    * dominant-pattern detectors in real spreadsheets.
    */
  def genNote(seed: Long): String = {
    val k = 2 + Det.nextInt(Det.combine(seed, 0x17), 4)
    (0 until k).map(i => synthWord(Det.combine(seed, 0x20 + i.toLong), 1, 3)).mkString(" ")
  }

  // ------------------------------------------------------------ domain table

  val country: VocabDomain = VocabDomain("country", countriesCommon, countriesUncommon)
  val stateCode: VocabDomain = VocabDomain("state_code", stateCodes, IndexedSeq.empty)
  val stateName: VocabDomain = VocabDomain("state_name", stateNames, IndexedSeq.empty)
  val month: VocabDomain = VocabDomain("month", months, IndexedSeq.empty)
  val weekday: VocabDomain = VocabDomain("weekday", weekdays, IndexedSeq.empty)
  val color: VocabDomain = VocabDomain("color", colors, IndexedSeq.empty)
  val city: VocabDomain = VocabDomain("city", citiesCommon, synthTail("city-tail", 240))
  val firstName: VocabDomain = VocabDomain("first_name", firstNamesCommon.distinct, synthTail("fname-tail", 240, 2, 3))
  val lastName: VocabDomain = VocabDomain("last_name", lastNamesCommon.distinct, synthTail("lname-tail", 240, 2, 3))
  val position: VocabDomain = VocabDomain("position", soccerPositions, IndexedSeq.empty)
  val facility: VocabDomain = VocabDomain("facility_type", facilityTypes, IndexedSeq.empty)

  val fullName: VocabDomain = {
    val base = Det.hashString("full-name")
    def mk(firsts: IndexedSeq[String], lasts: IndexedSeq[String], n: Int, tag: Long) =
      (0 until n).map { i =>
        val s = Det.combine(base, tag, i.toLong)
        s"${Det.pick(Det.combine(s, 1), firsts)} ${Det.pick(Det.combine(s, 2), lasts)}"
      }.distinct.toIndexedSeq
    VocabDomain("full_name",
      mk(firstNamesCommon, lastNamesCommon, 260, 1L),
      mk(firstName.all, lastName.all, 260, 2L))
  }

  val date: GenDomain = GenDomain("date", genDate)
  val isoDate: GenDomain = GenDomain("iso_date", genIsoDate)
  val time: GenDomain = GenDomain("time", genTime)
  val url: GenDomain = GenDomain("url", genUrl)
  val webDomain: GenDomain = GenDomain("web_domain", genWebDomain)
  val email: GenDomain = GenDomain("email", genEmail)
  val ip: GenDomain = GenDomain("ip", genIp)
  val creditCard: GenDomain = GenDomain("credit_card", genCreditCard)
  val fiscalYear: GenDomain = GenDomain("fiscal_year", genFiscalYear)
  val unit: GenDomain = GenDomain("unit", genUnit)
  val alphaNumId: GenDomain = GenDomain("alnum_id", genAlphaNumId)
  val ageRange: GenDomain = GenDomain("age_range", genAgeRange)
  val payRange: GenDomain = GenDomain("pay_range", genPayRange)
  val zip: GenDomain = GenDomain("zip", genZip)
  val phone: GenDomain = GenDomain("phone", genPhone)
  val gene: GenDomain = GenDomain("gene", genGene)
  val duration: GenDomain = GenDomain("duration", genDuration)
  val sampleCount: GenDomain = GenDomain("sample_count", genSampleCount)
  val mixedDate: GenDomain = GenDomain("mixed_date", genMixedDate)
  val productCode: GenDomain = GenDomain("product_code", genProductCode)
  val note: GenDomain = GenDomain("note", genNote)

  /** All built-in domains, in a stable order. */
  val all: IndexedSeq[Domain] = IndexedSeq(
    country, stateCode, stateName, month, weekday, color, city, firstName,
    lastName, fullName, position, facility,
    date, isoDate, time, url, webDomain, email, ip, creditCard, fiscalYear,
    unit, alphaNumId, ageRange, payRange, zip, phone, gene, duration,
    sampleCount, mixedDate, productCode, note)

  val byName: Map[String, Domain] = all.map(d => d.name -> d).toMap

  val nlDomains: IndexedSeq[VocabDomain] = all.collect { case v: VocabDomain => v }
}
