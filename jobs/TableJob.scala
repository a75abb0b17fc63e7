package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.experiments.Tables

/** spark-submit entrypoint for the reproduced tables (DESIGN §4):
  *
  *   spark-submit --class repro.jobs.TableJob target/scala-2.13/repro_*.jar <3|4|5|6|7|8|9|12>
  *
  * Runs the table's experiment driver and prints the rendered table to
  * stdout. Only Table 3's corpus statistics compute in Spark, so only it
  * builds a SparkSession; the other tables run on the driver.
  */
object TableJob {

  private val tables: Map[String, () => String] = Map(
    "3"  -> (() => withSpark(s => Tables.runTable3(s).rendered)),
    "4"  -> (() => Tables.runTable4().rendered),
    "5"  -> (() => Tables.runTable5().rendered),
    "6"  -> (() => Tables.runTable6().rendered),
    "7"  -> (() => Tables.runTable7().rendered),
    "8"  -> (() => Tables.runTable8().scored.rendered),
    "9"  -> (() => Tables.runTable9().rendered),
    "12" -> (() => Tables.runTable12().rendered),
  )

  private def withSpark[T](f: SparkSession => T): T = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-table3")
      .getOrCreate()
    try f(spark)
    finally spark.stop()
  }

  def main(args: Array[String]): Unit = {
    val table = args match {
      case Array(n) if tables.contains(n) => n
      case _ =>
        System.err.println(s"usage: TableJob <${tables.keys.toSeq.sortBy(_.toInt).mkString("|")}>")
        sys.exit(2)
    }
    println(tables(table)())
  }
}
