package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Assessment.{AssessedCandidate, ContingencyCounts}
import repro.core.Selection.{SelectionConfig, SelectionResult}
import repro.util.Det

import scala.collection.immutable.HashMap

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

  /** Several hundred K_j sets of 50–100 ids: large enough that their
    * `Set[Int]` is a `HashSet`, sharing their minimum so that groups tie.
    */
  val genLargeCase: Gen[Case] = for {
    nCand  <- Gen.choose(150, 300)
    cands  <- Gen.listOfN(nCand, Gen.zip(genFpr, genConf))
    nSets  <- Gen.choose(200, 400)
    pool   <- Gen.listOfN(nSets, for {
                lo   <- Gen.choose(0, 2)
                size <- Gen.choose(50, 100)
                rest <- Gen.pick(size - 1, lo + 1 until nCand)
              } yield (lo +: rest.toSeq).toSet)
    extra  <- Gen.listOfN(nSets / 2, Gen.oneOf(pool))
    ks      = pool ++ extra
    synIds <- Gen.pick(ks.size, 0 until 10000)
    pairs   = synIds.toIndexedSeq.zip(ks).flatMap { case (s, k) => k.toSeq.map(c => (s, c)) }
    order  <- Gen.choose(0L, Long.MaxValue)
    delta  <- Gen.oneOf(None, Some(1e-3))
    bSize  <- Gen.oneOf(5, 50, 500)
    seed   <- Gen.choose(0L, 1000L)
  } yield Case(cands.zipWithIndex.map { case ((f, c), i) => cand(i, f, c) }.toIndexedSeq,
    new scala.util.Random(order).shuffle(pairs), ks.size,
    SelectionConfig(bSize = bSize, bFpr = 0.1, delta = delta, seed = seed))

  /** Coverage instances whose LP optimum is mostly integral: most
    * candidates have an FPR of exactly 0, so the LP sets them to 0 or 1,
    * and a few have a positive one that a tight FPR or size budget makes
    * fractional. The rounding then draws for a few x_i and adds what they
    * cover to what the x_i = 1 picks cover.
    */
  val genRoundingCase: Gen[Case] = for {
    nCand  <- Gen.choose(8, 40)
    cands  <- Gen.listOfN(nCand, Gen.zip(
                Gen.frequency(4 -> Gen.const(0.0), 1 -> Gen.choose(0.01, 0.3)), genConf))
    nSets  <- Gen.choose(4, 30)
    pool   <- Gen.listOfN(nSets, Gen.nonEmptyContainerOf[Set, Int](Gen.choose(0, nCand - 1)).map(_.take(4)))
    nSyn   <- Gen.choose(10, 120)
    ks     <- Gen.listOfN(nSyn, Gen.oneOf(pool))
    delta  <- Gen.oneOf(None, Some(1e-3))
    bSize  <- Gen.frequency(1 -> Gen.oneOf(4, 8), 3 -> Gen.const(500))
    bFpr   <- Gen.oneOf(0.01, 0.05, 0.1, 0.3)
    seed   <- Gen.choose(0L, 1000L)
  } yield Case(cands.zipWithIndex.map { case ((f, c), i) => cand(i, f, c) }.toIndexedSeq,
    ks.zipWithIndex.flatMap { case (k, s) => k.toSeq.map(c => (s, c)) }, nSyn,
    SelectionConfig(bSize = bSize, bFpr = bFpr, delta = delta, seed = seed))

  /** The x part of the LP optimum `SetSelection` solves for `c`. */
  def lpX(c: Case): Array[Double] = SetSelection.lp(c.candidates, c.detections, c.cfg) match {
    case None => Array.empty
    case Some(lp) => val x = lp.solve().x; lp.c.indices.filter(lp.c(_) == 0.0).map(x(_)).toArray
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

  test("large K_j sets, hashed as HashSets, select what the Set reduction selects") {
    val prop = Prop.forAll(genLargeCase) { c =>
      val got = Selection.select(c.candidates, c.detections, c.nSyn, c.cfg)
      val want = SetSelection.select(c.candidates, c.detections, c.nSyn, c.cfg)
      Prop(same(got, want)) :| s"got $got\nwant $want"
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(4).withInitialSeed(Seed(29L)), prop)
    assert(result.passed, result.status)
  }

  test("groups whose Set hashes collide in full keep their insertion order") {
    // {0,5,6} and {0,4,7}: equal sum (11), xor (3), product of h|1 (35) and
    // size, so their Set hashes collide in full; with equal weight they tie
    // on (w, min K) too, and only insertion order separates them.
    val a = Array(0, 5, 6)
    val b = Array(0, 4, 7)
    assert(a.toSet.## == b.toSet.##)
    for (sets <- Seq(Seq(a, b), Seq(b, a))) {
      val withOther = sets :+ Array(1, 2)
      for (w <- Seq(Array(2, 2, 3), Array(2, 2, 2), Array(1, 1, 1))) {
        val want = HashMap.from(withOther.indices.map(g => withOther(g).toSet -> g)).valuesIterator.toArray
          .sortBy(g => (-w(g), withOther(g).min))
        val got = Selection.groupOrder(withOther.map(new Selection.IdSet(_)).toArray, w)
        assert(got.sameElements(want), s"${got.mkString(",")} vs ${want.mkString(",")}")
        assert(got.indexOf(0) < got.indexOf(1)) // the set inserted first comes first
      }
    }
    val cands = IndexedSeq(cand(0, 0.2, 0.9)) ++ (1 to 7).map(i => cand(i, if (i == 4) 0.02 else 0.01, 0.9))
    for ((first, second) <- Seq((a, b), (b, a)); bSize <- Seq(1, 2, 5); delta <- Seq(None, Some(1e-3));
         seed <- 0L to 3L) {
      val cfg = SelectionConfig(bSize = bSize, bFpr = 0.1, delta = delta, seed = seed)
      val dets = Seq(0 -> first, 1 -> second, 2 -> first, 3 -> second).flatMap { case (s, k) => k.map(s -> _) }
      val got = Selection.select(cands, dets, 4, cfg)
      assert(same(got, SetSelection.select(cands, dets, 4, cfg)), s"$cfg: $got")
    }
  }

  test("rounding over mostly integral optima selects what the verbatim rounding selects") {
    val prop = Prop.forAll(genRoundingCase) { c =>
      val got = Selection.select(c.candidates, c.detections, c.nSyn, c.cfg)
      val want = SetSelection.select(c.candidates, c.detections, c.nSyn, c.cfg)
      Prop(same(got, want)) :| s"got $got\nwant $want"
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(400).withInitialSeed(Seed(37L)), prop)
    assert(result.passed, result.status)
    // The instances are what they claim: most x_i integral, some fractional.
    val xs = (0L until 200L).map(k => lpX(genRoundingCase.pureApply(Gen.Parameters.default, Seed(k))))
    val fractional = xs.map(_.count(x => x > 0.0 && x < 1.0))
    assert(fractional.count(_ > 0) >= 40, fractional)
    assert(xs.map(_.length).sum >= 5 * fractional.sum, fractional)
  }

  test("when every rounding trial breaks a budget, the fall-back picks as the verbatim rounding does") {
    // Candidate 0 (FPR 0.06) detects 5 synthetic columns and candidate 1
    // (FPR 0.04 + 2e-10) 3 more, with B_FPR 0.1: the optimum has x_0 = 1 and
    // x_1 just below 1, so every trial draws candidate 1 and breaks the FPR
    // budget, and the fall-back keeps candidate 0 alone.
    val cands = IndexedSeq(cand(0, 0.06, 0.9), cand(1, 0.04 + 2e-10, 0.9))
    val dets = (0 until 5).map(_ -> 0) ++ (5 until 8).map(_ -> 1)
    val cfg = SelectionConfig(bSize = 500, bFpr = 0.1, seed = 7)
    val x = lpX(Case(cands, dets, 8, cfg))
    assert(x(0) == 1.0 && x(1) > 0.0 && x(1) < 1.0, x.toSeq)
    assert((0 until Selection.RoundingTrials).forall(t => Det.uniform(Det.combine(cfg.seed, t.toLong, 1L)) < x(1)))
    val got = Selection.select(cands, dets, 8, cfg)
    assert(same(got, SetSelection.select(cands, dets, 8, cfg)), got)
    assert(got.selected == IndexedSeq(cands(0)) && got.roundedObjective == 5.0, got)
  }

  test("IdSet hashes a sorted distinct id array as Set[Int] does") {
    val genIds: Gen[Array[Int]] = for {
      size <- Gen.frequency(3 -> Gen.choose(0, 4), 2 -> Gen.choose(5, 200))
      ids  <- Gen.listOfN(size, Gen.frequency(2 -> Gen.choose(0, 64), 1 -> Gen.choose(Int.MinValue, Int.MaxValue)))
    } yield ids.distinct.sorted.toArray
    val prop = Prop.forAll(genIds) { ids =>
      val want = ids.toSet.##
      Prop(new Selection.IdSet(ids).## == want) :| ids.mkString(",")
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(31L)), prop)
    assert(result.passed, result.status)
  }
}
