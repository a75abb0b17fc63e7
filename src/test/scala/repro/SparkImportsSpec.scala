package repro

import org.scalatest.funsuite.AnyFunSuite

/** Where the program may use Spark, and that it reads no environment
  * variable but Spark's master. Spark does relational work for Table 3
  * (`ColumnStore.toDf`, `Tables.runTable3`, run by `TableJob`); the other
  * files below keep a `SparkSession` parameter or a DataFrame adapter that
  * the benchmark harness calls (DESIGN §3, "Where Spark remains, and why").
  */
class SparkImportsSpec extends AnyFunSuite {

  private val allowed = Set(
    "jobs/TableJob.scala",
    "src/main/scala/repro/core/Assessment.scala",
    "src/main/scala/repro/core/AutoTest.scala",
    "src/main/scala/repro/core/Predictor.scala",
    "src/main/scala/repro/core/SynCorpus.scala",
    "src/main/scala/repro/corpus/ColumnStore.scala",
    "src/main/scala/repro/dists/Patterns.scala",
    "src/main/scala/repro/experiments/Tables.scala")

  private def sources = ProgramSources.all

  private def sparkLines(prefix: String): Seq[(String, String)] =
    for ((f, lines) <- sources if f.startsWith(prefix); l <- lines if l.contains("org.apache.spark")) yield (f, l.trim)

  test("only the listed files use Spark") {
    assert(sources.size > 30 && sources.exists(_._1 == "jobs/TableJob.scala"))
    val users = sparkLines("").map(_._1).toSet
    assert(users.subsetOf(allowed), s"Spark used outside the list: ${(users -- allowed).toSeq.sorted}")
  }

  test("baselines use no Spark, and dists only the DataFrame adapter") {
    assert(sparkLines("src/main/scala/repro/baselines/").isEmpty)
    assert(sparkLines("src/main/scala/repro/dists/").map(_._2).forall(_ == "import org.apache.spark.sql.DataFrame"))
  }

  test("of the table drivers, only runTable3 takes a SparkSession") {
    val tables = sources.collectFirst { case ("src/main/scala/repro/experiments/Tables.scala", ls) => ls }
      .getOrElse(fail("Tables.scala not found"))
    val named = tables.map(_.trim).filter(_.contains("SparkSession"))
    assert(named == Seq("import org.apache.spark.sql.SparkSession",
      "def runTable3(spark: SparkSession): Table3Result = {"), named.mkString("; "))
  }

  test("no Spark internals, RDDs or serialization contract") {
    val banned = Seq("org.apache.spark.unsafe", "sparkContext", "extends Serializable", "@transient")
    val found = for ((f, lines) <- sources; l <- lines; b <- banned if l.contains(b)) yield s"$f: $b"
    assert(found.isEmpty, found.mkString("; "))
  }

  test("the only environment read is TableJob's SPARK_MASTER, a deployment setting") {
    val reads = for ((f, lines) <- sources; l <- lines if l.contains("sys.env") || l.contains("System.getenv"))
      yield (f, l.trim)
    assert(reads.map(_._1) == Seq("jobs/TableJob.scala") && reads.head._2.contains("\"SPARK_MASTER\""),
      reads.mkString("; "))
  }
}
