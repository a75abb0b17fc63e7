package repro.core

import org.scalacheck.{Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Assessment.{AssessedCandidate, ContingencyCounts}

class SelectionSpec extends AnyFunSuite {

  private def cand(evalSuffix: String, fpr: Double, conf: Double): AssessedCandidate =
    AssessedCandidate(
      Sdc(s"e:$evalSuffix", 0.1, 0.9, 0.9, conf),
      ContingencyCounts(1, 99, 500, 400), fpr, 1.5, 0.001)

  test("empty detections select nothing") {
    val r = Selection.select(IndexedSeq(cand("a", 0.01, 0.9)), Seq.empty, 10,
      Selection.SelectionConfig())
    assert(r.selected.isEmpty)
    assert(r.lpObjective == 0.0)
  }

  test("single rule covering everything is selected") {
    val cands = IndexedSeq(cand("a", 0.01, 0.9))
    val dets = (0 until 10).map(j => (j, 0))
    val r = Selection.select(cands, dets, 10, Selection.SelectionConfig(bSize = 5, bFpr = 0.1))
    assert(r.selected.map(_.sdc.evalId) == IndexedSeq("e:a"))
    assert(r.roundedObjective == 10.0)
  }

  test("size budget limits selection to the best coverage") {
    // rule a covers syn {0..7}, rule b covers {8}, rule c covers {9}
    val cands = IndexedSeq(cand("a", 0.001, 0.9), cand("b", 0.001, 0.9), cand("c", 0.001, 0.9))
    val dets = (0 until 8).map(j => (j, 0)) ++ Seq((8, 1), (9, 2))
    val r = Selection.select(cands, dets, 10, Selection.SelectionConfig(bSize = 1, bFpr = 1.0))
    assert(r.selected.size == 1)
    assert(r.selected.head.sdc.evalId == "e:a")
  }

  test("FPR budget excludes expensive rules") {
    val cands = IndexedSeq(cand("cheap", 0.01, 0.9), cand("pricey", 0.5, 0.9))
    val dets = (0 until 5).map(j => (j, 0)) ++ (5 until 10).map(j => (j, 1))
    val r = Selection.select(cands, dets, 10, Selection.SelectionConfig(bSize = 10, bFpr = 0.05))
    assert(r.selected.map(_.sdc.evalId) == IndexedSeq("e:cheap"))
  }

  test("overlapping coverage is not double-counted (union objective, Eq 11)") {
    // two rules covering the same 5 columns: LP objective is 5, not 10
    val cands = IndexedSeq(cand("a", 0.01, 0.9), cand("b", 0.01, 0.9))
    val dets = (0 until 5).flatMap(j => Seq((j, 0), (j, 1)))
    val r = Selection.select(cands, dets, 5, Selection.SelectionConfig(bSize = 10, bFpr = 1.0))
    assert(math.abs(r.lpObjective - 5.0) < 1e-6)
    // dedup keeps one representative of the identical detector signature
    assert(r.selected.size == 1)
  }

  test("CSS ignores confidence; FSS (delta) restricts to near-best detectors") {
    // syn column 0 detected by a low-conf and a high-conf rule with
    // *different* coverage elsewhere, so they are not dedup-merged.
    val cands = IndexedSeq(cand("low", 0.01, 0.5), cand("high", 0.30, 0.95))
    val dets = Seq((0, 0), (0, 1), (1, 0)) // low also detects syn 1
    val css = Selection.select(cands, dets, 2,
      Selection.SelectionConfig(bSize = 1, bFpr = 0.05, delta = None))
    // CSS under a tight FPR budget picks "low" (covers both, fits budget)
    assert(css.selected.map(_.sdc.evalId) == IndexedSeq("e:low"))

    val fss = Selection.select(cands, dets, 2,
      Selection.SelectionConfig(bSize = 1, bFpr = 1.0, delta = Some(0.001)))
    // FSS: syn 0's near-best detector set is {high} only; K is {high} for
    // syn0 and {low} for syn1 — with bSize=1 it picks either but covering
    // syn0 requires "high".
    assert(fss.selected.nonEmpty)
  }

  test("delta = 1 reduces FSS to CSS (Definition 5 remark)") {
    val cands = IndexedSeq(cand("a", 0.01, 0.5), cand("b", 0.01, 0.95))
    val dets = Seq((0, 0), (0, 1), (1, 0), (2, 1))
    val css = Selection.select(cands, dets, 3, Selection.SelectionConfig(bSize = 2, bFpr = 1.0, delta = None))
    val fss1 = Selection.select(cands, dets, 3, Selection.SelectionConfig(bSize = 2, bFpr = 1.0, delta = Some(1.0)))
    assert(css.lpObjective == fss1.lpObjective)
    assert(css.selected.map(_.sdc.evalId).sorted == fss1.selected.map(_.sdc.evalId).sorted)
  }

  test("selected set always satisfies both budgets") {
    val cands = IndexedSeq.tabulate(10)(i => cand(s"r$i", 0.02 * (i + 1), 0.8))
    val dets = for (j <- 0 until 30; i <- 0 until 10 if (j + i) % 3 == 0) yield (j, i)
    val cfg = Selection.SelectionConfig(bSize = 3, bFpr = 0.1)
    val r = Selection.select(cands, dets, 30, cfg)
    assert(r.selected.size <= cfg.bSize)
    assert(r.selected.map(_.fpr).sum <= cfg.bFpr + 1e-9)
  }

  test("rounded objective never exceeds the LP bound") {
    val cands = IndexedSeq.tabulate(6)(i => cand(s"r$i", 0.01, 0.8))
    val dets = for (j <- 0 until 20; i <- 0 until 6 if j % (i + 1) == 0) yield (j, i)
    val r = Selection.select(cands, dets, 20, Selection.SelectionConfig(bSize = 2, bFpr = 1.0))
    assert(r.roundedObjective <= r.lpObjective + 1e-6)
  }

  /** The best objective of any candidate subset within both budgets: the
    * number of synthetic columns whose K_j (FSS: near-best detectors only)
    * meets it. FPRs are summed in index order with `Selection`'s 1e-12
    * slack.
    */
  private def bruteForceIlp(c: SelectionEquivalenceSpec.Case): Double = {
    val conf = c.candidates.map(_.sdc.confidence)
    val ks = c.detections.groupBy(_._1).values.map(_.map(_._2).distinct).map { k =>
      c.cfg.delta.fold(k)(d => k.filter(i => conf(i) >= k.map(conf).max - d))
    }.map(_.foldLeft(0)((mask, i) => mask | 1 << i)).toSeq
    (0 until 1 << c.candidates.size).iterator.filter { pick =>
      val picked = c.candidates.indices.filter(i => (pick >> i & 1) == 1)
      picked.size <= c.cfg.bSize && picked.map(c.candidates(_).fpr).sum <= c.cfg.bFpr + 1e-12
    }.map(pick => ks.count(k => (k & pick) != 0).toDouble).max
  }

  test("LP >= brute-force ILP >= rounded, up to 12 candidates") {
    val gen = SelectionEquivalenceSpec.genCase
      .suchThat(_.candidates.size <= 12)
      .map(c => c.copy(cfg = c.cfg.copy(maxLpCandidates = 2500)))
    val prop = Prop.forAll(gen) { c =>
      val r = Selection.select(c.candidates, c.detections, c.nSyn, c.cfg)
      val ilp = bruteForceIlp(c)
      Prop(r.lpObjective >= ilp - 1e-9 * math.max(1.0, ilp) && ilp >= r.roundedObjective) :|
        s"LP ${r.lpObjective}, ILP $ilp, rounded ${r.roundedObjective}, ${c.cfg}"
    }
    val res = Check.check(Check.Parameters.default.withMinSuccessfulTests(300).withInitialSeed(Seed(47L)), prop)
    assert(res.passed, res.status)
  }
}
