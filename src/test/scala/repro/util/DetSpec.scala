package repro.util

import org.scalacheck.{Arbitrary, Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite

class DetSpec extends AnyFunSuite {

  private val seeds: Seq[Long] = (0 until 200).map(i => Det.mix64(i.toLong))

  test("mix64 is deterministic") {
    assert(Det.mix64(42L) == Det.mix64(42L))
  }

  test("mix64 avalanches: nearby seeds produce unrelated outputs") {
    assert(Det.mix64(1L) != Det.mix64(2L))
    assert(math.abs(Det.mix64(1L) - Det.mix64(2L)) > 1000L)
  }

  test("hashString is deterministic and spreads") {
    assert(Det.hashString("abc") == Det.hashString("abc"))
    assert(Det.hashString("abc") != Det.hashString("abd"))
    assert(Det.hashString("") != Det.hashString("a"))
  }

  test("combine depends on order") {
    assert(Det.combine(1L, 2L) != Det.combine(2L, 1L))
  }

  test("fixed-arity combine is bit-equal to the varargs fold") {
    val prop = Prop.forAll { (a: Long, b: Long, c: Long) =>
      Det.combine(a, b) == Det.combine(Seq(a, b): _*) &&
      Det.combine(a, b, c) == Det.combine(Seq(a, b, c): _*)
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(1000).withInitialSeed(Seed(7L)), prop)
    assert(result.passed, result.status)
    assert(Det.combine(0L, 0L) == Det.combine(Seq(0L, 0L): _*))
    assert(Det.combine(-1L, Long.MinValue, Long.MaxValue) == Det.combine(Seq(-1L, Long.MinValue, Long.MaxValue): _*))
  }

  test("uniform in [0,1)") {
    seeds.foreach { s =>
      val u = Det.uniform(s)
      assert(u >= 0.0 && u < 1.0)
    }
  }

  test("uniform mean is near 0.5") {
    val mean = (0 until 10000).map(i => Det.uniform(i.toLong)).sum / 10000.0
    assert(math.abs(mean - 0.5) < 0.02)
  }

  test("nextInt stays in range") {
    seeds.foreach { s =>
      val n = Det.nextInt(s, 7)
      assert(n >= 0 && n < 7)
    }
  }

  test("nextInt rejects non-positive bound") {
    intercept[IllegalArgumentException](Det.nextInt(1L, 0))
  }

  test("nextInt covers the full range") {
    val seen = (0 until 1000).map(i => Det.nextInt(i.toLong, 5)).toSet
    assert(seen == Set(0, 1, 2, 3, 4))
  }

  test("gaussian has roughly standard moments") {
    val xs = (0 until 20000).map(i => Det.gaussian(i.toLong))
    val mean = xs.sum / xs.size
    val varr = xs.map(x => (x - mean) * (x - mean)).sum / xs.size
    assert(math.abs(mean) < 0.03, s"mean $mean")
    assert(math.abs(varr - 1.0) < 0.05, s"var $varr")
  }

  test("pick returns a member") {
    val xs = IndexedSeq("a", "b", "c")
    seeds.foreach { s => assert(xs.contains(Det.pick(s, xs))) }
  }

  test("pick rejects empty input") {
    intercept[IllegalArgumentException](Det.pick(1L, IndexedSeq.empty[Int]))
  }

  test("pickWeighted honours weights") {
    val xs = IndexedSeq(("a", 9.0), ("b", 1.0))
    val picks = (0 until 5000).map(i => Det.pickWeighted(i.toLong, xs))
    val aFrac = picks.count(_ == "a").toDouble / picks.size
    assert(aFrac > 0.85 && aFrac < 0.95, s"aFrac $aFrac")
  }

  test("pickWeighted rejects zero total weight") {
    intercept[IllegalArgumentException](Det.pickWeighted(1L, IndexedSeq(("a", 0.0))))
  }

  test("shuffle is a permutation and deterministic") {
    val xs = 1 to 20
    val s1 = Det.shuffle(99L, xs)
    val s2 = Det.shuffle(99L, xs)
    assert(s1 == s2)
    assert(s1.sorted == xs.toIndexedSeq)
    assert(s1 != xs.toIndexedSeq) // 20 elements virtually never fixed
  }

  test("sampleIndices returns k distinct in-range indices") {
    val s = Det.sampleIndices(5L, 100, 10)
    assert(s.size == 10)
    assert(s.distinct.size == 10)
    assert(s.forall(i => i >= 0 && i < 100))
  }

  test("sampleIndices rejects k > n") {
    intercept[IllegalArgumentException](Det.sampleIndices(1L, 3, 4))
  }

  test("zipf favours low ranks") {
    val zipf = new Det.Zipf(50, 1.0)
    val draws = (0 until 8000).map(i => zipf.draw(i.toLong))
    assert(draws.forall(d => d >= 0 && d < 50))
    val rank0 = draws.count(_ == 0).toDouble / draws.size
    val rank20 = draws.count(_ == 20).toDouble / draws.size
    assert(rank0 > rank20 * 3, s"rank0=$rank0 rank20=$rank20")
  }

  // The per-draw formula that Det.Zipf tabulates once per (n, alpha).
  private def zipfPerDraw(seed: Long, n: Int, alpha: Double): Int = {
    val w = (0 until n).map(k => 1.0 / math.pow(k + 1.0, alpha))
    var u = Det.uniform(seed) * w.sum
    var i = 0
    while (i < n - 1 && u >= w(i)) { u -= w(i); i += 1 }
    i
  }

  test("tabulated zipf equals the per-draw formula for n in 1..6000 over 1,000 seeds") {
    val gen = Gen.zip(Arbitrary.arbitrary[Long], Gen.choose(1, 6000),
      Gen.oneOf(Gen.const(0.9), Gen.choose(0.3, 2.5)))
    val prop = Prop.forAll(gen) { case (seed, n, alpha) =>
      new Det.Zipf(n, alpha).draw(seed) == zipfPerDraw(seed, n, alpha)
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(1000).withInitialSeed(Seed(5L)), prop)
    assert(result.passed, result.status)
  }

  test("VocabDomain draws equal the per-draw zipf formula (one table, many draws)") {
    repro.domains.Vocab.nlDomains.foreach { d =>
      seeds.foreach(s => assert(d.draw(s) == d.all(zipfPerDraw(s, d.all.length, repro.domains.VocabDomain.ZipfAlpha)), d.name))
    }
  }
}
