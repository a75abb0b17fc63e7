package repro.perfbench

import java.io.{File, PrintWriter}
import scala.collection.mutable.ArrayBuffer

/** In-memory span recorder for the traced run.
  *
  * A span is (name, start, end, parent span, operation id). Spans are opened
  * only on the main thread, around calls into the program's public
  * functions, so children of one span never overlap and a span's self time
  * is its duration minus the sum of its children's durations. The layer of
  * a span is its name up to the first dot ("assessment.contingency" belongs
  * to "assessment").
  */
final class Tracer {
  import Tracer.Span

  private val spans = ArrayBuffer.empty[Span]
  private var open: List[(Int, Int)] = Nil // (span id, op id), innermost first
  private var nextSpan = 0
  private var nextOp = 0

  /** Run `body` inside a span; a span opened with no parent starts a new
    * operation id that its descendants share.
    */
  def span[T](name: String)(body: => T): T = {
    val id = nextSpan
    nextSpan += 1
    val (parent, op) = open match {
      case (p, o) :: _ => (p, o)
      case Nil         => nextOp += 1; (-1, nextOp)
    }
    open = (id, op) :: open
    val t0 = System.nanoTime()
    try body
    finally {
      spans += Span(id, name, parent, op, t0, System.nanoTime())
      open = open.tail
    }
  }

  def all: IndexedSeq[Span] = spans.toIndexedSeq.sortBy(_.id)

  /** Summed duration of every span with this exact name. */
  def total(name: String): Double = spans.iterator.filter(_.name == name).map(_.seconds).sum

  /** Self time per layer, summed over spans. */
  def selfByLayer: Map[String, Double] = {
    val childTime = spans.groupBy(_.parent).view.mapValues(_.iterator.map(_.seconds).sum).toMap
    spans.groupBy(_.layer).view
      .mapValues(_.iterator.map(s => s.seconds - childTime.getOrElse(s.id, 0.0)).sum)
      .toMap
  }

  /** Write the spans as JSON lines, one span per line. */
  def write(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file, "UTF-8")
    try all.foreach { s =>
      w.println(s"""{"id":${s.id},"name":"${s.name}","parent":${s.parent},"op":${s.op},""" +
        s""""start_ns":${s.startNs},"end_ns":${s.endNs}}""")
    } finally w.close()
  }
}

object Tracer {
  final case class Span(id: Int, name: String, parent: Int, op: Int, startNs: Long, endNs: Long) {
    def seconds: Double = (endNs - startNs) / 1e9
    def layer: String = name.takeWhile(_ != '.')
  }
}
