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
    * Each partition builds one [[EvalBank]] over the plans' evaluators. Per
    * synthetic column, the bank's distance matrix of C(v^e) = base values +
    * v^e gives one [[ColumnProfile]] per evaluator, which decides every
    * candidate of that evaluator at once: pre-condition over the n+1
    * values, post-condition on v^e.
    */
  def detections(spark: SparkSession, syn: Seq[SynColumn],
                 plans: IndexedSeq[EvalPlan]): IndexedSeq[(Int, Int)] = {
    val bcPlans = spark.sparkContext.broadcast(plans)
    val rdd = spark.sparkContext.parallelize(syn,
      math.max(1, math.min(64, syn.size / 16)))
    rdd.mapPartitions { it =>
      val ps = bcPlans.value
      val bank = new EvalBank(ps.map(_.eval))
      it.flatMap { sc =>
        val hits = IndexedSeq.newBuilder[(Int, Int)]
        val dists = bank.distances((sc.baseValues :+ sc.errValue).toArray)
        ps.indices.foreach { k =>
          val plan = ps(k)
          val profile = new ColumnProfile(dists(k), plan.thresholds)
          val dErr = profile.dists.last
          plan.candidates.foreach { c =>
            if (dErr > c.dOut && profile.covers(c.dInIdx, c.m)) hits += ((sc.synId, c.idx))
          }
        }
        hits.result()
      }
    }.collect().toIndexedSeq
  }
}
