package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicInteger

import repro.SparkSpec
import repro.corpus.TableColumn
import repro.dists.{DomainEval, EvalRegistry}

/** Counts its distance calls per (evaluator, value) in one JVM-wide map,
  * which the coding threads share with the test.
  */
object CountingEval {
  val calls = new ConcurrentHashMap[(String, String), AtomicInteger]()
}

final class CountingEval(name: String) extends DomainEval {
  override val id: String = s"fun:count_$name"
  override def family: String = DomainEval.Function
  override def distance(v: String): Double = {
    CountingEval.calls.computeIfAbsent((id, v), _ => new AtomicInteger()).incrementAndGet()
    if (v == null) Double.NaN else (v.length % 3) * 0.5
  }
}

class ValueCodesSpec extends SparkSpec {

  import spark.implicits._

  private val ref = PerValueReference
  private lazy val plans = CandidateGen.enumerate(ref.mixedRegistry)

  // Raw strings that normalise alike but are distinct dictionary keys, null,
  // empty and whitespace-only values, supplementary characters, one value
  // shared by many columns, and an empty column.
  private val shared = "12 oz"
  private lazy val corpus: Seq[TableColumn] = {
    def col(id: String, vs: String*) = TableColumn(id, id, vs, Nil, vs.size.toLong)
    ref.corpus.take(40).zipWithIndex.map { case (c, i) =>
      if (i % 2 == 0) c.copy(values = c.values :+ shared) else c
    } ++ Seq(
      col("nulls", null, "", " ", "\t", "12 oz"),
      col("case", "January", "january", " january ", "JANUARY", "january\t", "jan uary"),
      col("units", "12 oz", "12 OZ", "12  oz", " 12 oz", "13 oz", "14 oz", "15 oz", "16 oz"),
      col("astral", "😀 smile", "𝔘𝔫𝔦𝔠𝔬𝔡𝔢", "🇩🇪", "東京", "ǅemal", "a\uD83D"),
      col("empty"),
      col("dates", "1/2/2020", "01/02/2020", " 1/2/2020", "2/29/2021", "february", "February"))
  }

  private def synOver(cols: Seq[TableColumn]): IndexedSeq[SynCorpus.SynColumn] = {
    val byId = cols.map(c => c.colId -> c).toMap
    val errs = Seq(null, "", "JANUARY", " january ", "12 OZ", "😀 smile", "february", shared, "13 oz")
    val hand = for {
      (base, i) <- Seq("nulls", "case", "units", "astral", "empty", "dates").zipWithIndex
      (e, j)    <- errs.zipWithIndex if !byId(base).values.contains(e)
    } yield SynCorpus.SynColumn(100 + i * 20 + j, base, byId(base).values, e)
    SynCorpus.generate(cols, 150, 9L) ++ hand
  }

  test("contingency and detections equal the per-value reference on nulls, case, whitespace and unicode") {
    val want = ref.contingency(corpus, plans).toSeq
    assert(Assessment.contingency(spark, corpus.toDS(), plans).toSeq == want)
    val codes = ValueCodes(corpus.iterator.flatMap(_.values), plans)
    assert(Assessment.count(corpus, codes, plans).toSeq == want)

    val syn = synOver(corpus)
    val dets = ref.detections(syn, plans)
    assert(dets.map(_._1).distinct.size > 20, "too few detected synthetic columns to compare")
    assert(SynCorpus.detections(spark, syn, plans) == dets)
    assert(SynCorpus.detect(syn, codes, plans) == dets, "corpus codes shared with the detections")
  }

  test("the dictionary keys raw strings, null included, in first-appearance order") {
    val values = corpus.flatMap(_.values)
    val distinct = values.distinct
    val codes = ValueCodes(values, plans)
    assert(codes.ids(distinct).toSeq == distinct.indices)
    assert(plans.forall(p => codes.row(p.eval).length == distinct.size))
    assert(Seq(null, "", "January", "january", " january ").map(codes.id).distinct.size == 5)
    assertThrows[NoSuchElementException](codes.id("not a corpus value"))
  }

  test("codes over 3+ chunks, the last partial, equal each bucketed distance") {
    // Corpus values, then made-up values of every family's kind, repeated.
    val made = (0 until 1200).map(i => Seq(s"$i oz", s"item$i", s"$i/${i % 12 + 1}/2020", s"word$i x")(i % 4))
    val values = corpus.flatMap(_.values) ++ made ++ made.take(300)
    val distinct = values.distinct
    assert(distinct.size > 2 * ValueCodes.Chunk && distinct.size % ValueCodes.Chunk != 0, distinct.size)
    val codes = ValueCodes(values, plans)
    plans.foreach { p =>
      val row = codes.row(p.eval)
      distinct.foreach { v =>
        assert(row(codes.id(v)) == ColumnProfile.bucket(p.eval.distance(v), p.thresholds), s"${p.eval.id} on '$v'")
      }
    }
    val again = ValueCodes(values, plans)
    assert(plans.forall(p => again.row(p.eval).sameElements(codes.row(p.eval))))
  }

  test("the codes job evaluates each distinct value once per evaluator") {
    val evals = IndexedSeq(new CountingEval("a"), new CountingEval("b"))
    val countPlans = CandidateGen.enumerate(new EvalRegistry(evals))
    val values = corpus.flatMap(_.values)
    CountingEval.calls.clear()
    val codes = ValueCodes(values, countPlans)
    val distinct = values.distinct
    assert(CountingEval.calls.size == evals.size * distinct.size)
    for (e <- evals; v <- distinct) assert(CountingEval.calls.get((e.id, v)).get == 1, s"${e.id} on '$v'")
    // NaN (here: null) lands in bucket 0; the rest at the 0/0.5 function edges.
    countPlans.foreach { p =>
      distinct.foreach { v =>
        assert(codes.row(p.eval)(codes.id(v)) == ColumnProfile.bucket(p.eval.distance(v), p.thresholds))
      }
    }
  }

  test("no values make empty codes, and an empty column counts as ncnt") {
    val none = ValueCodes(Iterator.empty, plans)
    assert(plans.forall(p => none.row(p.eval).isEmpty))
    assert(Assessment.count(Seq(TableColumn("e", "e", Nil, Nil, 0)), none, plans).count(_ == 1L) ==
      CandidateGen.totalCandidates(plans))
  }

  test("more edges than a byte code can count are rejected, naming the evaluator") {
    val eval = new CountingEval("wide")
    val wide = CandidateGen.EvalPlan(eval, Array.tabulate(ValueCodes.MaxEdges + 1)(_.toDouble), IndexedSeq.empty)
    val e = intercept[IllegalArgumentException](ValueCodes(Seq("a", "b"), IndexedSeq(wide)))
    assert(e.getMessage.contains(eval.id) && e.getMessage.contains(s"${ValueCodes.MaxEdges + 1} edges"), e.getMessage)
    val widest = wide.copy(thresholds = wide.thresholds.init)
    assert(ValueCodes(Seq("a", "b"), IndexedSeq(widest)).row(widest.eval).length == 2)
  }

  test("a model whose evaluator needs more edges than a byte code can count is rejected at construction") {
    val eval = new CountingEval("wide_model")
    val registry = new EvalRegistry(IndexedSeq(eval))
    // 64 SDCs with distinct d_in and d_out: 128 edges.
    val sdcs = (0 until 64).map(i => Sdc(eval.id, i.toDouble, 100.0 + i, 0.9, 0.9))
    val e = intercept[IllegalArgumentException](new SdcModel(sdcs, registry))
    assert(e.getMessage.contains(eval.id) && e.getMessage.contains("128 edges"), e.getMessage)
    assert(new SdcModel(sdcs.init, registry).size == 63)
  }
}
