package repro.core

import org.apache.spark.sql.SparkSession
import repro.core.CandidateGen.EvalPlan
import repro.dists.EvalBank

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

  /** Codes of `plan`'s evaluator at `plan.thresholds`, indexed by value id. */
  def row(plan: EvalPlan): Array[Byte] = rows(plan.eval.id)
}

object ValueCodes {

  /** Values per [[EvalBank.distances]] call, which bounds a task's distance
    * matrix at evaluators × `Chunk` doubles.
    */
  private val Chunk = 512

  /** Codes of every plan's evaluator over the distinct `values`, computed in
    * one Spark job with one [[EvalBank]] per partition.
    */
  def apply(spark: SparkSession, values: IterableOnce[String], plans: IndexedSeq[EvalPlan]): ValueCodes =
    apply(spark, values, plans, nSlices = 0)

  /** [[apply]] over `nSlices` partitions, or by default one per `Chunk`
    * values and at most four per core; the codes do not depend on it.
    */
  private[core] def apply(spark: SparkSession, values: IterableOnce[String], plans: IndexedSeq[EvalPlan],
                          nSlices: Int): ValueCodes = {
    val index = new java.util.HashMap[String, Integer]()
    val distinct = Array.newBuilder[String]
    values.iterator.foreach(v => if (index.putIfAbsent(v, index.size) == null) distinct += v)
    val vs = distinct.result()
    val slices =
      if (nSlices > 0) nSlices
      else math.max(1, math.min(4 * spark.sparkContext.defaultParallelism, vs.length / Chunk))
    new ValueCodes(index, plans.map(_.eval.id).zip(codes(spark, vs, plans, slices)).toMap)
  }

  /** codes(k)(j) = bucket of plans(k)'s distance to values(j). */
  private def codes(spark: SparkSession, values: Array[String], plans: IndexedSeq[EvalPlan],
                    nSlices: Int): Array[Array[Byte]] = {
    val rows = Array.fill(plans.size)(new Array[Byte](values.length))
    if (plans.nonEmpty && values.nonEmpty) {
      val bc = spark.sparkContext.broadcast((plans.map(_.eval), plans.map(_.thresholds)))
      val blocks = spark.sparkContext.parallelize(values.toSeq, nSlices).mapPartitions { it =>
        val (evals, edges) = bc.value
        val bank = new EvalBank(evals)
        val part = it.toArray
        val block = Array.fill(evals.size)(new Array[Byte](part.length))
        var from = 0
        while (from < part.length) {
          val to = math.min(from + Chunk, part.length)
          val dists = bank.distances(java.util.Arrays.copyOfRange(part, from, to))
          var k = 0
          while (k < evals.size) {
            val d = dists(k); val b = block(k); val e = edges(k)
            var j = 0
            while (j < d.length) { b(from + j) = ColumnProfile.bucket(d(j), e).toByte; j += 1 }
            k += 1
          }
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
