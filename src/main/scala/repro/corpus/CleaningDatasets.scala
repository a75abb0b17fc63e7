package repro.corpus

import java.util.Locale

import repro.domains.Vocab
import repro.util.Det

/** The nine data-cleaning benchmark datasets used in paper Sec 6.7
  * (adult, beers, flights, food, hospital, movies, rayyan, soccer, tax),
  * rebuilt synthetically with the Table 10 column inventory (substitute for
  * the originals, DESIGN §2).
  *
  * Ground truth distinguishes *known* errors (present in the original
  * benchmarks' ground truth) from *missed* errors (real errors absent from
  * existing ground truth — Table 11's "empty" / "childern" / "nan" class),
  * which drives the strict-vs-adjusted precision split of Table 9.
  */
object CleaningDatasets {

  /** One categorical column of a cleaning dataset. */
  final case class CleaningColumn(
      dataset: String,
      column: String,
      values: Vector[String],
      knownErrors: Set[String],
      missedErrors: Set[String],
      /** covered by an existing expert constraint (FD/CFD/...) in the benchmark */
      coveredByExistingGt: Boolean,
  ) {
    def allErrors: Set[String] = knownErrors ++ missedErrors
    def colId: String = s"$dataset/$column"
  }

  private def seedOf(tag: String): Long = Det.hashString("cleaning:" + tag)

  private def draw(domainName: String, n: Int, tag: String): Vector[String] =
    CorpusGen.drawColumnValues(Vocab.byName(domainName), n, seedOf(tag))

  /** Build a column: base values + injected known/missed errors. */
  private def col(ds: String, name: String, base: Vector[String],
                  known: Seq[String] = Nil, missed: Seq[String] = Nil,
                  gt: Boolean = false): CleaningColumn = {
    val vals = (base ++ known ++ missed).distinct
    CleaningColumn(ds, name, vals, known.toSet -- missed.toSet, missed.toSet, gt)
  }

  /** Small closed categorical vocab column (filler / domain-specific). */
  private def cat(ds: String, name: String, vocab: Seq[String],
                  gt: Boolean = false): CleaningColumn =
    col(ds, name, vocab.toVector, gt = gt)

  // ----------------------------------------------------------------- adults
  def adult: Seq[CleaningColumn] = Seq(
    cat("adult", "race", Seq("white", "black", "asian-pac-islander", "amer-indian-eskimo", "other")),
    cat("adult", "sex", Seq("female", "male")),
    cat("adult", "workclass", Seq("private", "self-emp", "federal-gov", "state-gov", "local-gov", "without-pay")),
    cat("adult", "education", Seq("bachelors", "hs-grad", "masters", "doctorate", "some-college", "assoc-acdm")),
    cat("adult", "marital_status", Seq("married", "divorced", "never-married", "separated", "widowed")),
    cat("adult", "occupation", Seq("tech-support", "craft-repair", "sales", "exec-managerial", "prof-specialty", "farming-fishing")),
    cat("adult", "relationship", Seq("wife", "husband", "own-child", "unmarried", "not-in-family")),
    cat("adult", "native_country", Vocab.countriesCommon.take(20), gt = true),
    cat("adult", "income", Seq("<=50k", ">50k")),
  )

  // ------------------------------------------------------------------ beers
  def beers: Seq[CleaningColumn] = Seq(
    col("beers", "city", draw("city", 60, "beers-city"),
      known = Seq("louisvilla", "seettle"), missed = Seq("9th ave."), gt = true),
    col("beers", "state", Vocab.stateCodes.toVector,
      known = Seq("ax", "xk"), missed = Seq("us"), gt = true),
    col("beers", "brewery_name", draw("full_name", 50, "beers-brew").map(_ + " brewing"), gt = true),
    cat("beers", "style", Seq("ipa", "stout", "lager", "pilsner", "porter", "ale", "saison", "wheat")),
    col("beers", "abv", (1 to 40).toVector.map(i => "%.1f%%".formatLocal(Locale.ROOT, 3.0 + i * 0.2))),
    col("beers", "ounces", (1 to 12).toVector.map(i => s"${i * 4} oz")),
  )

  // ---------------------------------------------------------------- flights
  def flights: Seq[CleaningColumn] = Seq(
    col("flights", "flight_number", (0 until 60).toVector.map(i => Vocab.genAlphaNumId(Det.combine(seedOf("fl-num"), i.toLong))), gt = true),
    col("flights", "sched_dep_time", (0 until 50).toVector.map(i => Vocab.genTime(Det.combine(seedOf("fl-dep"), i.toLong))), gt = true),
    col("flights", "act_dep_time", (0 until 50).toVector.map(i => Vocab.genTime(Det.combine(seedOf("fl-adep"), i.toLong))), gt = true),
    col("flights", "sched_arr_time", (0 until 50).toVector.map(i => Vocab.genTime(Det.combine(seedOf("fl-arr"), i.toLong))), gt = true),
    cat("flights", "carrier", Seq("aa", "ua", "dl", "wn", "b6", "as", "nk", "f9")),
    col("flights", "date", (0 until 40).toVector.map(i => Vocab.genDate(Det.combine(seedOf("fl-date"), i.toLong)))),
  )

  // ------------------------------------------------------------------- food
  def food: Seq[CleaningColumn] = Seq(
    col("food", "facility_type", Vocab.facilityTypes.toVector,
      missed = Seq("childern's service facility"), known = Seq("asia", "dummy_type")),
    col("food", "city", draw("city", 50, "food-city"),
      known = Seq("chiago"), missed = Seq("upenn")),
    col("food", "state", Vector("il"), known = Seq("xx"), gt = true),
    cat("food", "inspection_type", Seq("canvass", "complaint", "license", "re-inspection", "consultation")),
    cat("food", "results", Seq("pass", "fail", "pass w/ conditions", "out of business", "no entry")),
    cat("food", "risk", Seq("risk 1 (high)", "risk 2 (medium)", "risk 3 (low)")),
    col("food", "zip", (0 until 40).toVector.map(i => Vocab.genZip(Det.combine(seedOf("food-zip"), i.toLong)))),
    col("food", "license_id", (0 until 50).toVector.map(i => Vocab.genAlphaNumId(Det.combine(seedOf("food-lic"), i.toLong)))),
    col("food", "inspection_date", (0 until 40).toVector.map(i => Vocab.genDate(Det.combine(seedOf("food-date"), i.toLong)))),
    cat("food", "facility_category", Seq("food establishment", "shared kitchen", "mobile vendor")),
  )

  // --------------------------------------------------------------- hospital
  def hospital: Seq[CleaningColumn] = {
    val base = Seq(
      col("hospital", "sample", (0 until 45).toVector.map(i => Vocab.genSampleCount(Det.combine(seedOf("hosp-sample"), i.toLong))),
        known = Seq("x patients", "3x patients"), missed = Seq("empty")),
      col("hospital", "state", Vocab.stateCodes.toVector.take(30),
        known = Seq("ax", "xl"), gt = true),
      col("hospital", "hospital_type", Vector("acute care hospitals", "critical access hospitals", "childrens"),
        known = Seq("acute caer"), gt = true),
      col("hospital", "emergency_service", Vector("yes", "no"),
        known = Seq("yxs", "nao"), gt = true),
      col("hospital", "city", draw("city", 45, "hosp-city"),
        known = Seq("birminghamx", "doothan"), gt = true),
      col("hospital", "measure_name", Vector(
        "heart attack patients given aspirin at arrival",
        "heart attack patients given aspirin at discharge",
        "pneumonia patients given initial antibiotic",
        "surgery patients given an antibiotic",
        "heart failure patients given ace inhibitor",
        "patients given assessment of left ventricular function"), gt = true),
      col("hospital", "phone_number", (0 until 40).toVector.map(i => Vocab.genPhone(Det.combine(seedOf("hosp-ph"), i.toLong))),
        known = Seq("33x4793000"), gt = true),
      col("hospital", "zip", (0 until 40).toVector.map(i => Vocab.genZip(Det.combine(seedOf("hosp-zip"), i.toLong))), gt = true),
    )
    val fillers = Seq(
      cat("hospital", "condition", Seq("heart attack", "heart failure", "pneumonia", "surgical infection prevention"), gt = true),
      cat("hospital", "measure_code", Seq("ami-1", "ami-2", "ami-3", "hf-1", "hf-2", "pn-2", "pn-3", "scip-1"), gt = true),
      cat("hospital", "county", Seq("jefferson", "mobile", "shelby", "baldwin", "madison", "houston"), gt = true),
      cat("hospital", "owner", Seq("government - federal", "government - state", "proprietary", "voluntary non-profit"), gt = true),
      cat("hospital", "address_1", Seq("1108 ross clark circle", "2505 u s highway 431 north", "205 marengo street")),
      cat("hospital", "provider_number", (10001 to 10040).map(_.toString)),
      cat("hospital", "stateavg", Seq("al_ami-1", "al_ami-2", "al_hf-1", "al_pn-2")),
      cat("hospital", "score", (0 to 30).map(i => s"${70 + i}%")),
    )
    base ++ fillers
  }

  // ----------------------------------------------------------------- movies
  def movies: Seq[CleaningColumn] = {
    // Error rates per column are kept ~10% (as in the original benchmark,
    // where movies' 161 cell errors sit inside large columns): the SDC
    // pre-condition (m >= 0.85) must still fire on these columns.
    val ids = (0 until 800).toVector.map(i => "tt%07d".formatLocal(Locale.ROOT, 1000000 + Det.nextInt(Det.combine(seedOf("mov-id"), i.toLong), 8999999))).distinct
    val idErrs = Vector("iron_man_3", "dark_tide", "the_avengers", "battleship_2012") ++
      (0 until 76).map(i => s"${Vocab.synthWord(Det.combine(seedOf("mov-iderr"), i.toLong), 2, 3)}_${Vocab.synthWord(Det.combine(seedOf("mov-iderr2"), i.toLong), 1, 2)}")
    val durs = (40 to 400).toVector.map(n => s"$n min")
    val durErrs = Vector("2 hr 30 min", "nan", "1 hr", "2 hr 10 min") ++
      (0 until 36).map(i => s"${1 + Det.nextInt(Det.combine(seedOf("mov-durerr"), i.toLong), 3)} hr ${1 + Det.nextInt(Det.combine(seedOf("mov-durerr2"), i.toLong), 59)} min")
    Seq(
      // movies' cell errors are labelled in the benchmark's clean version
      // (Table 9 counts them as strict TPs); only "nan" is GT-missed.
      col("movies", "id", ids, known = idErrs.distinct),
      col("movies", "duration", durs, known = durErrs.distinct.filterNot(_ == "nan"),
        missed = Seq("nan")),
      col("movies", "year", (1960 to 2023).toVector.map(_.toString)),
      cat("movies", "genre", Seq("action", "comedy", "drama", "horror", "romance", "thriller", "sci-fi", "documentary")),
      cat("movies", "rating_value", (10 to 99).map(i => "%.1f".formatLocal(Locale.ROOT, i / 10.0))),
      cat("movies", "content_rating", Seq("g", "pg", "pg-13", "r", "nc-17", "not rated")),
      col("movies", "director", draw("full_name", 60, "mov-dir")),
      col("movies", "actors", draw("full_name", 60, "mov-act")),
      cat("movies", "language", Seq("english", "french", "spanish", "german", "italian", "japanese", "korean", "hindi")),
      col("movies", "country", Vocab.countriesCommon.take(25).toVector),
      cat("movies", "creator", Seq("marvel studios", "warner bros", "universal", "paramount", "sony pictures")),
      col("movies", "release_date", (0 until 50).toVector.map(i => Vocab.genDate(Det.combine(seedOf("mov-rel"), i.toLong)))),
      cat("movies", "star_rating", Seq("1 star", "2 stars", "3 stars", "4 stars", "5 stars")),
      col("movies", "name", draw("full_name", 80, "mov-name")),
    )
  }

  // ----------------------------------------------------------------- rayyan
  def rayyan: Seq[CleaningColumn] = Seq(
    col("rayyan", "article_created_at", (0 until 45).toVector.map { i =>
      val s = Det.combine(seedOf("ray-date"), i.toLong)
      s"${1 + Det.nextInt(Det.combine(s, 1), 12)}/${1 + Det.nextInt(Det.combine(s, 2), 28)}/${Det.nextInt(Det.combine(s, 3), 30)}"
    }.map { d => // two-digit years like "1/1/71"
      val parts = d.split("/"); "%s/%s/%02d".formatLocal(Locale.ROOT, parts(0), parts(1), parts(2).toInt)
    }, missed = Seq("nan"), gt = true),
    col("rayyan", "article_title", draw("full_name", 50, "ray-title").map(t => s"a study of $t"), gt = true),
    col("rayyan", "article_language", Vector("english", "french", "german", "spanish", "portuguese"), gt = true),
    col("rayyan", "journal_title", draw("city", 40, "ray-journal").map(c => s"journal of $c studies"), gt = true),
    col("rayyan", "article_jvolumn", (1 to 50).toVector.map(_.toString), gt = true),
    col("rayyan", "article_jissue", (1 to 12).toVector.map(_.toString), gt = true),
    col("rayyan", "article_pagination", (0 until 40).toVector.map { i =>
      val s = Det.combine(seedOf("ray-pg"), i.toLong)
      val lo = 1 + Det.nextInt(s, 400); s"$lo-${lo + 8 + Det.nextInt(Det.combine(s, 1), 20)}"
    }, gt = true),
    col("rayyan", "author_list", draw("full_name", 50, "ray-auth"), gt = true),
  )

  // ----------------------------------------------------------------- soccer
  def soccer: Seq[CleaningColumn] = Seq(
    col("soccer", "position", Vocab.soccerPositions.toVector,
      known = Seq("strikor", "forwrad")),
    col("soccer", "city", draw("city", 50, "soc-city"),
      known = Seq("cardif", "munihei"), gt = true),
    col("soccer", "name", draw("full_name", 60, "soc-name")),
    col("soccer", "surname", draw("last_name", 50, "soc-surname")),
    col("soccer", "team", draw("city", 30, "soc-team").map(c => s"$c fc")),
    cat("soccer", "foot", Seq("left", "right", "both")),
    col("soccer", "birth_year", (1980 to 2005).toVector.map(_.toString)),
    col("soccer", "season", (2010 to 2023).toVector.map(y => s"$y-${(y + 1) % 100}")),
  )

  // -------------------------------------------------------------------- tax
  def tax: Seq[CleaningColumn] = Seq(
    col("tax", "state", Vocab.stateCodes.toVector, known = Seq("ax", "xk"), gt = true),
    col("tax", "city", draw("city", 50, "tax-city"), gt = true),
    col("tax", "zip", (0 until 50).toVector.map(i => Vocab.genZip(Det.combine(seedOf("tax-zip"), i.toLong))), gt = true),
    col("tax", "area_code", (0 until 40).toVector.map(i => (200 + Det.nextInt(Det.combine(seedOf("tax-area"), i.toLong), 800)).toString).distinct, gt = true),
    col("tax", "f_name", draw("first_name", 50, "tax-fname"), gt = true),
    col("tax", "l_name", draw("last_name", 50, "tax-lname"), gt = true),
    cat("tax", "gender", Seq("m", "f")),
    cat("tax", "marital_status", Seq("m", "s")),
  )

  val datasetNames: Seq[String] =
    Seq("adult", "beers", "flights", "food", "hospital", "movies", "rayyan", "soccer", "tax")

  def dataset(name: String): Seq[CleaningColumn] = name match {
    case "adult"    => adult
    case "beers"    => beers
    case "flights"  => flights
    case "food"     => food
    case "hospital" => hospital
    case "movies"   => movies
    case "rayyan"   => rayyan
    case "soccer"   => soccer
    case "tax"      => tax
    case other      => throw new IllegalArgumentException(s"unknown dataset $other")
  }
}
