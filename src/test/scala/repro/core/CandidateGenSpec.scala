package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.dists.{EvalRegistry, FunctionEval, PatternEval}

class CandidateGenSpec extends AnyFunSuite {

  private val registry = EvalRegistry.default(
    centroidValues = Seq("january", "seattle"),
    minedPatterns = Seq("\\d+ [a-zA-Z]+", "[a-zA-Z]+\\d+"))

  test("grids require dOut > dIn in every emitted candidate") {
    CandidateGen.enumerate(registry).foreach { plan =>
      plan.candidates.foreach(c => assert(c.dOut > c.dIn, c))
    }
  }

  test("global candidate indices are a contiguous 0..n-1 range") {
    val plans = CandidateGen.enumerate(registry)
    val idxs = plans.flatMap(_.candidates.map(_.idx))
    assert(idxs == idxs.indices.map(identity))
  }

  test("pattern/function candidates pin dIn=0 (0/1 distances)") {
    val plans = CandidateGen.enumerate(registry)
    plans.filter(p => p.eval.family == "pattern" || p.eval.family == "function")
      .flatMap(_.candidates)
      .foreach(c => assert(c.dIn == 0.0 && c.dOut == 0.5))
  }

  test("threshold indices resolve back to the actual thresholds") {
    CandidateGen.enumerate(registry).foreach { plan =>
      plan.candidates.foreach { c =>
        assert(plan.thresholds(c.dInIdx) == c.dIn)
        assert(plan.thresholds(c.dOutIdx) == c.dOut)
      }
    }
  }

  test("candidate count matches the grid cross-product") {
    val pat = new PatternEval("\\d+")
    val g = CandidateGen.gridFor(pat)
    val expected = (for { di <- g.dIns; dо <- g.dOuts if dо > di; _ <- g.ms } yield 1).size
    val plan = CandidateGen.enumerate(
      new EvalRegistry(IndexedSeq(pat))).head
    assert(plan.candidates.size == expected)
  }

  test("the full default registry yields thousands of candidates (Sec 5.1 scale)") {
    val big = EvalRegistry.default((1 to 50).map(i => s"w$i"), (1 to 20).map(i => s"p$i\\d+"))
    val n = CandidateGen.totalCandidates(CandidateGen.enumerate(big))
    assert(n > 2000, s"got $n")
  }

  // The histogram over the grid edges lives in ColumnProfile: within(i)
  // counts distances <= ts(i), and the values beyond ts.last trigger.
  private val ts = Array(0.5, 1.0, 2.0)
  private val profile = PerValueReference.profile(Array(0.1, 0.5, 0.7, 1.0, 1.5, 3.0), ts)

  test("histogram bins distances at grid edges") {
    val cumulative = ts.indices.map(profile.within) :+ profile.size
    val bins = cumulative.head +: cumulative.sliding(2).map(w => w(1) - w(0)).toSeq
    // bin semantics: (-inf,0.5], (0.5,1.0], (1.0,2.0], (2.0,inf)
    assert(bins == Seq(2, 2, 1, 1))
  }

  test("prefix counts give cntLE at each threshold") {
    assert(ts.indices.map(profile.within) == Seq(2, 4, 5))
    assert(profile.triggers(2) && profile.covers(2, 5.0 / 6) && !profile.covers(2, 0.9))
  }

  test("histogram of empty input is all zeros") {
    val empty = PerValueReference.profile(Array.empty, Array(1.0))
    assert(empty.within(0) == 0)
    assert(!empty.triggers(0) && !empty.covers(0, 0.5))
  }

  test("boundary values are counted as inside (<=)") {
    val p = PerValueReference.profile(Array(1.0), Array(1.0))
    assert(p.within(0) == 1)
    assert(p.covers(0, 1.0) && !p.triggers(0))
  }

  test("toSdc preserves parameters") {
    val c = CandidateGen.Candidate(0, "e", 0.1, 0.9, 0.8, 0, 1)
    val s = c.toSdc(0.77)
    assert(s == Sdc("e", 0.1, 0.9, 0.8, 0.77))
  }

  test("function evaluator grid includes the Table 1 r7/r8 high-m settings") {
    val f = FunctionEval.allEvals.head
    val ms = CandidateGen.gridFor(f).ms
    assert(ms.contains(0.98) && ms.contains(0.99))
    assert(ms.min >= 0.60) // extended low-m band for high injection rates
  }
}
