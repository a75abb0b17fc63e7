package repro

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.SparkSession
import org.scalatest.concurrent.Eventually._
import org.scalatest.time.{Seconds, Span}

/** Counts the Spark jobs a block starts. */
object SparkJobs {

  /** The number of jobs `body` starts on this thread. `body` runs in its own
    * job group; a marker job in another group follows it, and the count is
    * read once the listener has seen the marker, so every job of `body` has
    * been delivered by then.
    */
  def count(spark: SparkSession)(body: => Unit): Int = {
    val groups = new java.util.concurrent.ConcurrentLinkedQueue[String]()
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        groups.add(Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id"))).getOrElse(""))
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("counted", "jobs under count")
      body
      sc.setJobGroup("marker", "marks the end of the counted jobs")
      sc.parallelize(Seq(1), 1).count()
      eventually(timeout(Span(30, Seconds)))(assert(groups.contains("marker")))
      groups.stream().filter(_ == "counted").count().toInt
    } finally {
      sc.clearJobGroup()
      sc.removeSparkListener(listener)
    }
  }
}
