package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Tables

/** spark-submit entrypoint for the reproduced tables (DESIGN §4):
  *
  *   spark-submit --class repro.jobs.TableJob target/scala-2.13/repro_*.jar <3|4|5|6|7|8|9|12>
  *
  * Builds the shared SparkSession, runs the table's experiment driver, and
  * prints the rendered table to stdout.
  */
object TableJob {

  private val tables: Map[String, SparkSession => String] = Map(
    "3"  -> (s => Tables.runTable3(s).rendered),
    "4"  -> (s => Tables.runTable4(s).rendered),
    "5"  -> (s => Tables.runTable5(s).rendered),
    "6"  -> (s => Tables.runTable6(s).rendered),
    "7"  -> (s => Tables.runTable7(s).rendered),
    "8"  -> (s => Tables.runTable8(s).scored.rendered),
    "9"  -> (s => Tables.runTable9(s).rendered),
    "12" -> (s => Tables.runTable12(s).rendered),
  )

  def main(args: Array[String]): Unit = {
    val table = args match {
      case Array(n) if tables.contains(n) => n
      case _ =>
        System.err.println(s"usage: TableJob <${tables.keys.toSeq.sortBy(_.toInt).mkString("|")}>")
        sys.exit(2)
    }
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"repro-table$table")
      .getOrCreate()
    try println(tables(table)(spark))
    finally spark.stop()
  }
}
