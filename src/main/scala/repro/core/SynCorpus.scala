package repro.core

import org.apache.spark.sql.SparkSession
import repro.corpus.TableColumn
import repro.core.CandidateGen.EvalPlan
import repro.dists.EvalBank
import repro.util.Det

/** Distant-supervision recall estimation (paper Sec 5.3).
  *
  * C_syn: each synthetic column C(v^e) = C ∪ {v^e} takes a corpus column C
  * and injects one value v^e sampled from a column of a *different* domain,
  * so v^e is (almost always) an error in context — mirroring the paper's
  * construction, which accepts a small (~3%) mislabel rate.
  *
  * D(r) (Eq 10) is the set of synthetic columns whose injected error r
  * detects: r's pre-condition holds on C(v^e) and f_t(v^e) > d_out.
  */
object SynCorpus {

  /** One synthetic column: a clean base column plus one injected error. */
  final case class SynColumn(synId: Int, baseColId: String, baseValues: Seq[String], errValue: String)

  /** Build C_syn from a corpus (deterministic in the seed). */
  def generate(corpus: Seq[TableColumn], nSyn: Int, seed: Long): IndexedSeq[SynColumn] = {
    val cols = corpus.toIndexedSeq
    require(cols.size >= 2, "need at least 2 corpus columns for C_syn")
    val out = IndexedSeq.newBuilder[SynColumn]
    var id = 0
    var attempt = 0
    val maxAttempts = nSyn * 10
    while (id < nSyn && attempt < maxAttempts) {
      val s = Det.combine(seed, attempt.toLong)
      val base = cols(Det.nextInt(Det.combine(s, 1), cols.size))
      val other = cols(Det.nextInt(Det.combine(s, 2), cols.size))
      attempt += 1
      if (other.domainTag != base.domainTag && other.values.nonEmpty) {
        val ve = other.values(Det.nextInt(Det.combine(s, 3), other.values.size))
        if (!base.values.contains(ve)) {
          out += SynColumn(id, base.colId, base.values, ve)
          id += 1
        }
      }
    }
    out.result()
  }

  /** Distributed D(r): (synId, candIdx) detection pairs, in C_syn order.
    *
    * Synthetic columns that share a base column (same id and values) are
    * decided together. Each partition builds one [[EvalBank]] over the plans'
    * evaluators; per base column, one distance matrix covers the base values
    * and every injected v^e. Per evaluator the base values are profiled once
    * ([[ColumnProfile]]), and each synthetic column's candidates are decided
    * from that profile plus its own v^e: pre-condition over the n+1 values
    * ([[ColumnProfile.coversWith]]), post-condition on v^e.
    */
  def detections(spark: SparkSession, syn: Seq[SynColumn],
                 plans: IndexedSeq[EvalPlan]): IndexedSeq[(Int, Int)] = {
    // (base values, (position in syn, synId, v^e) per synthetic column)
    val groups = syn.toIndexedSeq.zipWithIndex
      .groupBy { case (sc, _) => (sc.baseColId, sc.baseValues) }
      .toIndexedSeq
      .map { case ((_, base), cols) => (base, cols.map { case (sc, pos) => (pos, sc.synId, sc.errValue) }) }
      .sortBy(_._2.head._1)
    val bcPlans = spark.sparkContext.broadcast(plans)
    val rdd = spark.sparkContext.parallelize(groups,
      math.max(1, math.min(64, groups.size / 16)))
    val perColumn = rdd.mapPartitions { it =>
      val ps = bcPlans.value
      val bank = new EvalBank(ps.map(_.eval))
      it.flatMap { case (base, cols) =>
        val nBase = base.size
        val dists = bank.distances((base ++ cols.map(_._3)).toArray)
        val profiles = ps.indices.map(k => new ColumnProfile(java.util.Arrays.copyOf(dists(k), nBase), ps(k).thresholds))
        cols.indices.iterator.map { j =>
          val (pos, synId, _) = cols(j)
          val hits = IndexedSeq.newBuilder[(Int, Int)]
          ps.indices.foreach { k =>
            val dErr = dists(k)(nBase + j)
            ps(k).candidates.foreach { c =>
              if (dErr > c.dOut && profiles(k).coversWith(dErr, c.dInIdx, c.m)) hits += ((synId, c.idx))
            }
          }
          (pos, hits.result())
        }
      }
    }.collect()
    val inOrder = new Array[IndexedSeq[(Int, Int)]](syn.size)
    perColumn.foreach { case (pos, hits) => inOrder(pos) = hits }
    inOrder.toIndexedSeq.flatten
  }
}
