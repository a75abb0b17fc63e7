package repro.core

import java.util.concurrent.{Callable, ForkJoinPool}

import org.scalatest.funsuite.AnyFunSuite
import repro.corpus.{BenchGen, CorpusGen}
import repro.experiments.Baselines
import repro.util.Par

/** The driver's passes run on Java parallel streams, which use the
  * `ForkJoinPool` their caller runs in. Training, batch prediction and a
  * baseline's predictions must not depend on that pool's thread count, and
  * one model's single-column calls must not depend on how many threads share
  * it. No SparkSession is made: training and batch prediction use none.
  */
class ThreadCountSpec extends AnyFunSuite {

  private lazy val corpus = CorpusGen.generate(CorpusGen.relationalProfile(nCols = 600))
  private lazy val bench = BenchGen.generate(BenchGen.stProfile(nCols = 300))
  private val cfg = AutoTest.AutoTestConfig(nCentroids = 50, nPatterns = 40, nSyn = 1000, seed = 42)

  private def inPool[T](threads: Int)(body: => T): T = {
    val pool = new ForkJoinPool(threads)
    try pool.submit(new Callable[T] { def call(): T = body }).get()
    finally pool.shutdown()
  }

  private def bits(d: Double): Long = java.lang.Double.doubleToRawLongBits(d)

  private def assessed(a: Assessment.AssessedCandidate) = {
    val s = a.sdc
    (s.evalId, bits(s.dIn), bits(s.dOut), bits(s.m), bits(s.confidence), a.counts,
      bits(a.fpr), bits(a.effectSize), bits(a.pValue))
  }

  private def selection(r: Selection.SelectionResult): Seq[Any] =
    r.selected.map(assessed) :+ ((bits(r.lpObjective), bits(r.roundedObjective), r.lpIterations))

  private def predictions(ps: Seq[Prediction]) = ps.map(p => (p.colId, p.value, bits(p.confidence)))

  /** Every output of one train, batch predict and baseline run, doubles as bits. */
  private def outputs(threads: Int): Map[String, Seq[Any]] = inPool(threads) {
    val m = AutoTest.train(corpus, cfg)
    Map(
      "contingency counts" -> m.contingencyCounts.toSeq,
      "R_all" -> m.assessed.map(assessed),
      "detections" -> m.detections,
      "CSS selection" -> selection(m.coarse),
      "FSS selection" -> selection(m.fine),
      "predictions" -> predictions(m.allConstraintsModel.predictions(bench)),
      "baseline predictions" -> predictions(Baselines("Glove").predictions(bench)))
  }

  test("training, batch prediction and a baseline are bit-equal at 1, 2, 3 and 7 threads") {
    val one = outputs(1)
    one.foreach { case (k, v) => assert(v.nonEmpty, s"$k empty") }
    Seq(2, 3, 7).foreach { n =>
      val out = outputs(n)
      val differing = one.keys.filter(k => out(k) != one(k))
      assert(differing.isEmpty, s"at $n threads, differ from 1 thread: ${differing.mkString(", ")}")
    }
  }

  /** `predictColumn` and `explainColumn` of `model` on `vs`, doubles as bits. */
  private def singleColumn(model: SdcModel)(vs: Seq[String]): Seq[Any] = {
    val e = model.explainColumn(vs)
    Seq(model.predictColumn(vs).toSeq.map { case (v, c) => (v, bits(c)) },
      e.covering, e.flagged.toSeq.map { case (v, c) => (v, bits(c)) })
  }

  test("single-column calls on one shared model are bit-equal to a sequential run at 1, 2, 3 and 7 threads") {
    val m = AutoTest.train(corpus, cfg)
    val models = Seq(m.allConstraintsModel, m.fineModel)
    val cols = bench.map(_.values)
    assert(cols.exists(vs => m.fineModel.explainColumn(vs).covering.nonEmpty), "no column is covered")
    val sequential = models.map(model => cols.map(singleColumn(model)))
    Seq(1, 2, 3, 7).foreach { n =>
      val parallel = inPool(n)(models.map(model => Par.flatMapInOrder(cols)(vs => Seq(singleColumn(model)(vs)))))
      assert(parallel == sequential, s"at $n threads")
    }
  }
}
