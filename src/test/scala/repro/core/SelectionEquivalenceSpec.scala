package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Assessment.{AssessedCandidate, ContingencyCounts}
import repro.core.Selection.{SelectionConfig, SelectionResult}

/** `Selection.select` (array reduction) equals `SetSelection.select` (the
  * Scala-collections reduction it replaced) on every input: the same rules,
  * LP iterations and objective bits. The generators aim at the places where
  * the two could part: LP rows of groups tied on (w, min K), whose order
  * decides the LP vertex; duplicate and unordered detection pairs; FPR and
  * confidence ties in signature dedup and FSS; and an active LP cap.
  */
object SelectionEquivalenceSpec {

  final case class Case(candidates: IndexedSeq[AssessedCandidate], detections: Seq[(Int, Int)],
                        nSyn: Int, cfg: SelectionConfig)

  private def cand(i: Int, fpr: Double, conf: Double): AssessedCandidate =
    AssessedCandidate(Sdc(s"e:$i", 0.1, 0.9, 0.9, conf), ContingencyCounts(1, 99, 500, 400), fpr, 1.5, 0.001)

  private val genFpr: Gen[Double] =
    Gen.frequency(3 -> Gen.oneOf(0.0, 0.01, 0.02, 0.05), 1 -> Gen.choose(0.0, 0.2))
  private val genConf: Gen[Double] =
    Gen.frequency(3 -> Gen.oneOf(0.5, 0.9, 0.9 + 5e-4, 0.95), 1 -> Gen.choose(0.3, 0.99))

  /** K_j sets drawn from a small pool of sets that share their minimum, so
    * many groups tie on (w, min K).
    */
  private def genKSet(nCand: Int): Gen[Set[Int]] = for {
    lo   <- Gen.choose(0, math.min(2, nCand - 1))
    size <- Gen.choose(1, 4)
    rest <- Gen.listOfN(size, Gen.choose(lo, nCand - 1))
  } yield (lo :: rest).toSet

  val genCase: Gen[Case] = for {
    nCand    <- Gen.choose(1, 24)
    cands    <- Gen.listOfN(nCand, Gen.zip(genFpr, genConf))
    nSets    <- Gen.choose(1, 30)
    pool     <- Gen.listOfN(nSets, genKSet(nCand))
    nSyn     <- Gen.choose(1, 80)
    ks       <- Gen.listOfN(nSyn, Gen.oneOf(pool))
    synIds   <- Gen.pick(nSyn, 0 until 1000)
    pairs     = synIds.toIndexedSeq.zip(ks).flatMap { case (s, k) => k.toSeq.map(c => (s, c)) }
    dups     <- Gen.someOf(pairs)
    order    <- Gen.choose(0L, Long.MaxValue)
    delta    <- Gen.oneOf(None, Some(0.0), Some(1e-3), Some(1.0))
    bSize    <- Gen.oneOf(1, 2, 3, 5, 500)
    bFpr     <- Gen.oneOf(0.01, 0.05, 0.1, 1.0)
    maxLp    <- Gen.frequency(1 -> Gen.choose(1, 6), 2 -> Gen.const(2500))
    seed     <- Gen.choose(0L, 1000L)
  } yield {
    val dets = new scala.util.Random(order).shuffle(pairs ++ dups)
    Case(cands.zipWithIndex.map { case ((f, c), i) => cand(i, f, c) }.toIndexedSeq, dets, nSyn,
      SelectionConfig(bSize = bSize, bFpr = bFpr, delta = delta, maxLpCandidates = maxLp, seed = seed))
  }

  /** Equal results, with the objectives compared bit for bit. */
  def same(a: SelectionResult, b: SelectionResult): Boolean =
    a == b &&
      java.lang.Double.doubleToRawLongBits(a.lpObjective) == java.lang.Double.doubleToRawLongBits(b.lpObjective) &&
      java.lang.Double.doubleToRawLongBits(a.roundedObjective) == java.lang.Double.doubleToRawLongBits(b.roundedObjective)
}

class SelectionEquivalenceSpec extends AnyFunSuite {
  import SelectionEquivalenceSpec._

  test("the array reduction selects exactly what the Set reduction selects") {
    val prop = Prop.forAll(genCase) { c =>
      val got = Selection.select(c.candidates, c.detections, c.nSyn, c.cfg)
      val want = SetSelection.select(c.candidates, c.detections, c.nSyn, c.cfg)
      Prop(same(got, want)) :| s"got $got\nwant $want"
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(400).withInitialSeed(Seed(23L)), prop)
    assert(result.passed, result.status)
  }
}
