package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.CandidateGen.EvalPlan
import repro.dists.{DomainEval, EvalBank}

/** A value dictionary and its edge-bucket codes (DESIGN §5): every distinct
  * value gets an id, in first-appearance order, and every (evaluator, value)
  * one byte, the [[ColumnProfile.bucket]] of the evaluator's distance at its
  * threshold edges. Definition 2 compares a distance only with those edges,
  * so the contingency pass, the C_syn detections and batch prediction count
  * these codes ([[ColumnProfile.fromCodes]]) and never call an evaluator
  * themselves.
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

  /** Values per [[EvalBank.distances]] call, which bounds a task's distance
    * matrix at evaluators × `Chunk` doubles.
    */
  private val Chunk = 512

  /** The most edges one evaluator's codes can count: a code runs from 0 to
    * the number of edges and is stored as a signed byte.
    */
  private[core] val MaxEdges: Int = Byte.MaxValue

  /** Rejects an evaluator with more edges than a byte code can count. */
  private[core] def requireByteCodes(eval: DomainEval, nEdges: Int): Unit =
    if (nEdges > MaxEdges) throw new IllegalArgumentException(
      s"evaluator ${eval.id} has $nEdges edges; edge-bucket codes hold at most $MaxEdges")

  /** Codes of every plan's evaluator at the plan's sorted, distinct
    * thresholds, over the distinct `values`, computed in one Spark job with
    * one [[EvalBank]] per executor.
    */
  def apply(spark: SparkSession, values: IterableOnce[String], plans: IndexedSeq[EvalPlan]): ValueCodes =
    apply(spark, values, plans, nSlices = 0)

  /** [[apply]] over `nSlices` partitions, or by default one per `Chunk`
    * values and at most four per core; the codes do not depend on it.
    */
  private[core] def apply(spark: SparkSession, values: IterableOnce[String], plans: IndexedSeq[EvalPlan],
                          nSlices: Int): ValueCodes = {
    plans.foreach(p => requireByteCodes(p.eval, p.thresholds.length))
    val index = new java.util.HashMap[String, Integer]()
    val distinct = Array.newBuilder[String]
    values.iterator.foreach(v => if (index.putIfAbsent(v, index.size) == null) distinct += v)
    val vs = distinct.result()
    val slices =
      if (nSlices > 0) nSlices
      else math.max(1, math.min(4 * spark.sparkContext.defaultParallelism, vs.length / Chunk))
    new ValueCodes(index, plans.map(_.eval.id).zip(codes(spark, vs, plans, slices)).toMap)
  }

  /** Writes the code of each of `dists` at `edges` into `out` from `offset`. */
  private[core] def encode(dists: Array[Double], edges: Array[Double], out: Array[Byte], offset: Int): Unit = {
    var j = 0
    while (j < dists.length) { out(offset + j) = ColumnProfile.bucket(dists(j), edges).toByte; j += 1 }
  }

  /** The evaluators and edges a codes job broadcasts. The tasks of one
    * executor read one deserialized copy, and so share one [[EvalBank]],
    * which is safe to call from several tasks at once.
    */
  private final class Coder(val evals: IndexedSeq[DomainEval], val edges: IndexedSeq[Array[Double]])
      extends Serializable {
    @transient lazy val bank: EvalBank = new EvalBank(evals)
  }

  /** codes(k)(j) = bucket of plans(k)'s distance to values(j) at its thresholds. */
  private def codes(spark: SparkSession, values: Array[String], plans: IndexedSeq[EvalPlan],
                    nSlices: Int): Array[Array[Byte]] = {
    val rows = Array.fill(plans.size)(new Array[Byte](values.length))
    if (plans.nonEmpty && values.nonEmpty) {
      val bc = spark.sparkContext.broadcast(new Coder(plans.map(_.eval), plans.map(_.thresholds)))
      val blocks = spark.sparkContext.parallelize(values.toSeq, nSlices).mapPartitions { it =>
        val coder = bc.value
        val part = it.toArray
        val block = Array.fill(coder.evals.size)(new Array[Byte](part.length))
        var from = 0
        while (from < part.length) {
          val to = math.min(from + Chunk, part.length)
          val dists = coder.bank.distances(java.util.Arrays.copyOfRange(part, from, to))
          var k = 0
          while (k < dists.length) { encode(dists(k), coder.edges(k), block(k), from); k += 1 }
          from = to
        }
        Iterator.single((part.length, block))
      }.collect()
      bc.destroy()
      var offset = 0
      blocks.foreach { case (n, block) =>
        var k = 0
        while (k < rows.length) { System.arraycopy(block(k), 0, rows(k), offset, n); k += 1 }
        offset += n
      }
    }
    rows
  }
}
