package repro.perfbench

import scala.collection.mutable
import scala.util.control.NonFatal

/** Counts attempted and failed operations. An operation fails when it
  * throws or when one of its checks reports a failure.
  */
final class Ledger {
  var attempted = 0
  var failed = 0
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer.empty

  def attempt[T](label: String)(body: => (T, Seq[String])): Option[T] = {
    attempted += 1
    try {
      val (r, errs) = body
      if (errs.nonEmpty) { failed += 1; failures ++= errs.map(e => s"$label: $e") }
      Some(r)
    } catch {
      case NonFatal(e) => failed += 1; failures += s"$label: $e"; None
    }
  }
}

/** Named metrics with units, printed one per line and then as the final
  * JSON result line.
  */
final class Report {
  private val metrics = mutable.LinkedHashMap.empty[String, (Double, String)]

  def put(name: String, value: Double, unit: String): Unit = metrics(name) = (value, unit)

  /** Print every metric, then the result line. Non-finite values make the
    * run incorrect rather than producing invalid JSON.
    */
  def print(ledger: Ledger): Unit = {
    metrics.foreach { case (n, (v, u)) => println(s"metric $n = $v $u") }
    val bad = metrics.collect { case (n, (v, _)) if !v.isFinite => s"metric $n is $v" }
    val failures = ledger.failures ++ bad
    failures.foreach(f => println(s"FAILED $f"))
    val body = metrics.map { case (n, (v, u)) =>
      val num = if (v.isFinite) v.toString else "0"
      s""""$n": {"value": $num, "unit": "$u"}"""
    }.mkString(", ")
    val correct = failures.isEmpty && ledger.failed == 0
    println(s"""{"correct": $correct, "attempted": ${ledger.attempted}, "failed": ${ledger.failed}, "metrics": {$body}}""")
  }
}

object Stat {
  def timed[T](body: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  /** Linear-interpolated quantile, q in [0, 1]. */
  def quantile(xs: Seq[Double], q: Double): Double = {
    val s = xs.sorted.toIndexedSeq
    if (s.isEmpty) Double.NaN
    else {
      val pos = q * (s.size - 1)
      val lo = math.floor(pos).toInt
      val hi = math.min(lo + 1, s.size - 1)
      s(lo) + (pos - lo) * (s(hi) - s(lo))
    }
  }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)
}
