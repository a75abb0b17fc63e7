package repro.corpus

import org.scalatest.funsuite.AnyFunSuite
import repro.domains.{Vocab, VocabDomain}

class BenchGenSpec extends AnyFunSuite {

  private lazy val st = BenchGen.generate(BenchGen.stProfile(nCols = 600))
  private lazy val rt = BenchGen.generate(BenchGen.rtProfile(nCols = 600))

  test("benchmarks have the requested size") {
    assert(st.size == 600 && rt.size == 600)
  }

  test("dirty fraction is in the paper's 3-4% band") {
    val f = st.count(_.errors.nonEmpty).toDouble / st.size
    assert(f > 0.015 && f < 0.08, s"dirty fraction $f")
  }

  test("every labelled error value is present in its column") {
    (st ++ rt).filter(_.errors.nonEmpty).foreach { c =>
      c.errors.foreach(e => assert(c.values.contains(e), s"${c.colId}: $e"))
    }
  }

  test("errors are not valid members of the column's domain") {
    (st ++ rt).filter(_.errors.nonEmpty).foreach { c =>
      Vocab.byName(c.domainTag) match {
        case v: VocabDomain => c.errors.foreach(e => assert(!v.all.contains(e.toLowerCase), s"${c.colId}: $e"))
        case _              => // machine domains checked via validators elsewhere
      }
    }
  }

  test("rt columns are longer than st columns on average") {
    val stMean = st.map(_.values.size).sum.toDouble / st.size
    val rtMean = rt.map(_.values.size).sum.toDouble / rt.size
    assert(rtMean > stMean, s"rt $rtMean vs st $stMean")
  }

  test("generation is deterministic") {
    val again = BenchGen.generate(BenchGen.stProfile(nCols = 600))
    assert(st.map(_.values) == again.map(_.values))
  }

  test("benchmark includes Fig 3 trap domains among clean columns") {
    val cleanDomains = st.filterNot(_.errors.nonEmpty).map(_.domainTag).toSet
    assert(cleanDomains.contains("gene") || cleanDomains.contains("age_range") ||
           cleanDomains.contains("pay_range"))
  }

  test("withSyntheticErrors injects roughly the requested rate") {
    val injected = BenchGen.withSyntheticErrors(st, 0.10, seed = 1L)
    val extraErrors = injected.map(_.errors.size).sum - st.map(_.errors.size).sum
    val totalVals = st.map(_.values.size).sum
    val rate = extraErrors.toDouble / totalVals
    assert(rate > 0.05 && rate < 0.15, s"rate $rate")
  }

  test("withSyntheticErrors keeps originals intact and labels additions") {
    val injected = BenchGen.withSyntheticErrors(st, 0.05, seed = 2L)
    st.zip(injected).foreach { case (orig, inj) =>
      assert(inj.values.startsWith(orig.values))
      assert(inj.errors.toSet.subsetOf(inj.values.toSet))
      assert(orig.errors.toSet.subsetOf(inj.errors.toSet))
    }
  }

  test("injected values never come from the column's own domain vocabulary") {
    val injected = BenchGen.withSyntheticErrors(st, 0.10, seed = 3L)
    st.zip(injected).foreach { case (orig, inj) =>
      val added = inj.errors.toSet -- orig.errors.toSet
      Vocab.byName(orig.domainTag) match {
        case v: VocabDomain => added.foreach(a => assert(!v.all.contains(a.toLowerCase), s"${orig.colId}: $a"))
        case _ =>
      }
    }
  }

  test("higher injection rates add more errors (Table 4's 5/10/20% settings)") {
    val e05 = BenchGen.withSyntheticErrors(st, 0.05, 4L).map(_.errors.size).sum
    val e10 = BenchGen.withSyntheticErrors(st, 0.10, 4L).map(_.errors.size).sum
    val e20 = BenchGen.withSyntheticErrors(st, 0.20, 4L).map(_.errors.size).sum
    assert(e05 < e10 && e10 < e20)
  }
}
