package repro.dists

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import repro.SparkSpec
import repro.Oracle
import repro.corpus.{ColumnStore, TableColumn}

class PatternsSpec extends SparkSpec {

  test("generalize maps digits to \\d+") {
    assert(Patterns.generalize("12345") == "\\d+")
  }

  test("generalize maps letters to [a-zA-Z]+") {
    assert(Patterns.generalize("hello") == "[a-zA-Z]+")
    assert(Patterns.generalize("HeLLo") == "[a-zA-Z]+")
  }

  test("generalize of Fig 2 movie-id shape") {
    assert(Patterns.generalize("tt0054215") == "[a-zA-Z]+\\d+")
  }

  test("generalize of Fig 2 unit shape '12 oz'") {
    assert(Patterns.generalize("12 oz") == "\\d+ [a-zA-Z]+")
  }

  test("generalize keeps punctuation literally") {
    assert(Patterns.generalize("1/2/2020") == "\\d+/\\d+/\\d+")
    assert(Patterns.generalize("a-b.c") == "[a-zA-Z]+-[a-zA-Z]+.[a-zA-Z]+")
  }

  test("generalize collapses whitespace runs to one space") {
    assert(Patterns.generalize("a   b") == "[a-zA-Z]+ [a-zA-Z]+")
  }

  test("generalize trims input") {
    assert(Patterns.generalize("  42 ") == "\\d+")
  }

  test("generalize of empty/null is <empty>") {
    assert(Patterns.generalize("") == "<empty>")
    assert(Patterns.generalize(null) == "<empty>")
    assert(Patterns.generalize("   ") == "<empty>")
  }

  test("generalize truncates very long patterns") {
    val long = (1 to 50).map(i => s"a$i").mkString("-")
    assert(Patterns.generalize(long).length <= 61)
  }

  test("PatternEval distance is 0/1 (Eq 3)") {
    val e = new PatternEval("\\d+ [a-zA-Z]+")
    assert(e.distance("12 oz") == 0.0)
    assert(e.distance("0.05%") == 1.0) // the Fig 2 C6 error
    assert(e.family == DomainEval.Pattern)
  }

  test("minePatterns finds dominant patterns of a synthetic corpus") {
    val cols = Seq(
      TableColumn("c1", "id", (1 to 20).map(i => s"ab$i"), Nil, 20),
      TableColumn("c2", "id", (1 to 20).map(i => s"xy$i"), Nil, 20),
      TableColumn("c3", "unit", (1 to 20).map(i => s"$i oz"), Nil, 20),
      TableColumn("c4", "mixed", Seq("a1", "2 oz", "zzz", "9.9", "b-2", "x_1"), Nil, 6),
    )
    val df = ColumnStore.toDf(spark, cols)
    val mined = Patterns.minePatterns(ColumnStore.explode(df), topK = 10)
    assert(mined.contains("[a-zA-Z]+\\d+"))
    assert(mined.contains("\\d+ [a-zA-Z]+"))
    // the mixed column dominates nothing
    assert(!mined.contains("[a-zA-Z]+-\\d+"))
  }

  test("minePatterns respects topK") {
    val cols = (0 until 30).map { i =>
      TableColumn(s"c$i", "d", (1 to 10).map(j => s"p${i}v$j${"!" * (i % 7)}"), Nil, 10)
    }
    val df = ColumnStore.toDf(spark, cols)
    val mined = Patterns.minePatterns(ColumnStore.explode(df), topK = 3)
    assert(mined.size <= 3)
  }

  private def exploded(cols: Seq[TableColumn]) = ColumnStore.explode(ColumnStore.toDf(spark, cols))

  // U+E000 sorts below U+1F600 in UTF-8 bytes (EE.. < F0..) but above it
  // in UTF-16 code units (E000 > D83D), so String.compareTo would swap them.
  private val privateUse = "\uE000"
  private val emoji = "\uD83D\uDE00"
  // 59 literal dashes then a surrogate pair: truncating the pattern to 60
  // chars leaves an unpaired high surrogate, which Spark stores as '?'.
  private val splitPair = "-" * 59 + emoji
  // Unpaired surrogates inside a value, which Spark stores as '?' before
  // the pattern is generalized and the driver-side miner maps to '?' after.
  private val loneHigh = "\uDBFF"
  private val loneLow = "\uDC00"

  test("minePatterns breaks ties by UTF-8 byte order, as Spark orders strings") {
    val cols = Seq(emoji, privateUse, "ab", "\uFFFD", splitPair).zipWithIndex.map { case (v, i) =>
      TableColumn(s"c$i", "d", Seq.fill(3)(v), Nil, 3)
    }
    val expected = Seq("-" * 59 + "?…", "[a-zA-Z]+", privateUse, "\uFFFD", emoji)
    assert(Patterns.minePatterns(exploded(cols), topK = 10) == expected)
    assert(SqlPatternMiner.minePatterns(exploded(cols), 10) == expected)
  }

  test("minePatterns equals the SQL aggregation at 1, 3 and 16 partitions") {
    val atom = Gen.oneOf("7", "12", "3.5", "ab", "Zx", "-", ".", "/", " ", "  ",
      privateUse, "\uFFFD", emoji, "\uD835\uDC00", "\u00e9", "\u4e2d", splitPair, loneHigh, loneLow)
    val value: Gen[String] = Gen.frequency(
      1 -> Gen.const(null), 1 -> Gen.const(""),
      12 -> Gen.choose(1, 4).flatMap(Gen.listOfN(_, atom)).map(_.mkString))
    // A column draws mostly from its own 1-3 values, so patterns dominate
    // several columns and tie; it may be empty.
    val column: Gen[Seq[String]] = for {
      own <- Gen.choose(1, 3).flatMap(Gen.listOfN(_, value))
      n   <- Gen.choose(0, 10)
      vs  <- Gen.listOfN(n, Gen.frequency(4 -> Gen.oneOf(own), 1 -> value))
    } yield vs
    val corpus = Gen.choose(0, 12).flatMap(Gen.listOfN(_, column)).map(_.zipWithIndex.map {
      case (vs, i) => TableColumn(s"c$i", "d", vs, Nil, vs.size.toLong)
    })
    var minedLone = 0 // cases whose mined patterns hold a '?' from an unpaired surrogate in a value
    val prop = Prop.forAll(corpus, Gen.choose(1, 12)) { (cols, topK) =>
      val df = exploded(cols)
      val expected = SqlPatternMiner.minePatterns(df, topK)
      if (expected.exists(p => p.stripSuffix("?…").contains('?'))) minedLone += 1
      Patterns.mine(ColumnStore.rows(cols), topK) == expected &&
        Seq(1, 3, 16).forall(p => Patterns.minePatterns(df.repartition(p), topK) == expected)
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(20).withInitialSeed(Seed(11L)), prop)
    assert(result.passed, result.status)
    assert(minedLone > 0, "no generated corpus mined a pattern with an unpaired surrogate")
  }

  test("pattern dominance counts agree with DuckDB (oracle)") {
    import org.apache.spark.sql.functions._
    val cols = Seq(
      TableColumn("c1", "id", (1 to 10).map(i => s"ab$i"), Nil, 10),
      TableColumn("c2", "unit", (1 to 10).map(i => s"$i oz"), Nil, 10),
      TableColumn("c3", "id", (1 to 10).map(i => s"q$i"), Nil, 10),
    )
    val exploded = ColumnStore.explode(ColumnStore.toDf(spark, cols))
    val genUdf = udf((v: String) => Patterns.generalize(v))
    val patDf = exploded.select(col("col_id"), genUdf(col("value")).as("pattern"))
    val agg = patDf.groupBy("pattern").agg(count(lit(1)).as("n")).orderBy("pattern")
    Oracle.assertEquivalent(
      agg,
      "SELECT pattern, COUNT(*) AS n FROM pats GROUP BY pattern ORDER BY pattern",
      "pats" -> patDf)
  }
}
