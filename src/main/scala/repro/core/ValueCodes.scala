package repro.core

import java.util.stream.IntStream

import repro.core.CandidateGen.EvalPlan
import repro.dists.{DomainEval, EvalBank}

/** A value dictionary and its edge-bucket codes (DESIGN §5): every distinct
  * value gets an id, in first-appearance order, and every (evaluator, value)
  * one byte, the [[ColumnProfile.bucket]] of the evaluator's distance at its
  * threshold edges. Definition 2 compares a distance only with those edges,
  * so the contingency pass and the C_syn detections count these codes
  * ([[ColumnProfile.fromCodes]]) and never call an evaluator themselves.
  *
  * The dictionary is keyed on the raw string, null included: evaluators
  * such as patterns tell apart values that [[repro.dists.DomainEval.normalize]]
  * would merge.
  */
final class ValueCodes private (index: java.util.HashMap[String, Integer],
                                rows: Map[String, Array[Byte]]) {

  /** The id of each of `values`, all of which must be in the dictionary. */
  def ids(values: Seq[String]): Array[Int] = {
    val out = new Array[Int](values.size)
    var j = 0
    values.foreach { v => out(j) = id(v); j += 1 }
    out
  }

  def id(value: String): Int = {
    val i = index.get(value)
    if (i == null) throw new NoSuchElementException(s"value not in the dictionary: $value")
    i
  }

  /** Codes of `eval` at the edges it was coded at, indexed by value id. */
  def row(eval: DomainEval): Array[Byte] = rows(eval.id)
}

object ValueCodes {

  /** Values per [[EvalBank.distances]] call, which bounds a chunk's distance
    * matrix at evaluators × `Chunk` doubles.
    */
  private[core] val Chunk = 512

  /** The most edges one evaluator's codes can count: a code runs from 0 to
    * the number of edges and is stored as a signed byte.
    */
  private[core] val MaxEdges: Int = Byte.MaxValue

  /** Rejects an evaluator with more edges than a byte code can count. */
  private[core] def requireByteCodes(eval: DomainEval, nEdges: Int): Unit =
    if (nEdges > MaxEdges) throw new IllegalArgumentException(
      s"evaluator ${eval.id} has $nEdges edges; edge-bucket codes hold at most $MaxEdges")

  /** Codes of every plan's evaluator at the plan's sorted, distinct
    * thresholds, over the distinct `values`. One [[EvalBank]], which is safe
    * to call from several threads at once, codes them in `Chunk`-value chunks
    * on a parallel stream; each chunk writes only its own range of every
    * row, so the codes do not depend on scheduling.
    */
  def apply(values: IterableOnce[String], plans: IndexedSeq[EvalPlan]): ValueCodes = {
    plans.foreach(p => requireByteCodes(p.eval, p.thresholds.length))
    val index = new java.util.HashMap[String, Integer]()
    val distinct = Array.newBuilder[String]
    values.iterator.foreach(v => if (index.putIfAbsent(v, index.size) == null) distinct += v)
    val vs = distinct.result()
    val rows = Array.fill(plans.size)(new Array[Byte](vs.length))
    if (plans.nonEmpty && vs.nonEmpty) {
      val bank = new EvalBank(plans.map(_.eval))
      IntStream.range(0, (vs.length + Chunk - 1) / Chunk).parallel().forEach { c =>
        val from = c * Chunk
        val dists = bank.distances(java.util.Arrays.copyOfRange(vs, from, math.min(from + Chunk, vs.length)))
        var k = 0
        while (k < dists.length) { encode(dists(k), plans(k).thresholds, rows(k), from); k += 1 }
      }
    }
    new ValueCodes(index, plans.map(_.eval.id).zip(rows).toMap)
  }

  /** Writes the code of each of `dists` at `edges` into `out` from `offset`. */
  private[core] def encode(dists: Array[Double], edges: Array[Double], out: Array[Byte], offset: Int): Unit = {
    var j = 0
    while (j < dists.length) { out(offset + j) = ColumnProfile.bucket(dists(j), edges).toByte; j += 1 }
  }
}
