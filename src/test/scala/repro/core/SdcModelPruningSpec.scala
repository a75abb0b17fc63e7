package repro.core

import java.util.concurrent.atomic.AtomicInteger

import org.scalatest.funsuite.AnyFunSuite
import repro.corpus.TableColumn
import repro.dists.{DomainEval, EvalRegistry}

/** Distance 0 for the values `inDomain` accepts and 1 for the rest; counts
  * its calls. [[repro.dists.EvalBank]] scores it per value, so the count is
  * the number of values it was scored on.
  */
final class CallCountingEval(override val id: String, inDomain: String => Boolean) extends DomainEval {
  val calls = new AtomicInteger
  override def family: String = DomainEval.Function
  override def distance(v: String): Double = { calls.incrementAndGet(); if (inDomain(v)) 0.0 else 1.0 }
}

/** The work of [[SdcModel]]'s single-column pass, which batch prediction
  * runs on each column: an evaluator is scored on the column's values until
  * none of its SDCs' pre-conditions can hold any more, and not after.
  */
class SdcModelPruningSpec extends AnyFunSuite {

  private def isIn(v: String): Boolean = v != null && v.startsWith("in")

  private def col(nIn: Int, nOut: Int): Seq[String] = (1 to nIn).map(i => s"in$i") ++ (1 to nOut).map(i => s"out$i")

  /** A model of one SDC (d_in 0, d_out 0.5) per `m` on a new counting
    * evaluator, so each test counts from zero.
    */
  private def model(ms: Double*): (SdcModel, CallCountingEval) = {
    val eval = new CallCountingEval("count:a", isIn)
    val sdcs = ms.map(m => Sdc(eval.id, 0.0, 0.5, m, 0.9)).toIndexedSeq
    (new SdcModel(sdcs, new EvalRegistry(IndexedSeq(eval))), eval)
  }

  private def callsOn(values: Seq[String], ms: Double*): Int = {
    val (m, eval) = model(ms: _*)
    m.predictColumn(values)
    eval.calls.get
  }

  test("a column outside d_in costs the smallest j with (n - j) / n < m calls") {
    for (n <- 1 to 40; m <- Seq(0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 0.98, 0.99, 1.0)) {
      val j = (1 to n).find(j => (n - j).toDouble / n < m).get
      assert(callsOn(col(0, n), m) == j, s"n=$n m=$m")
    }
  }

  test("an evaluator is dropped only when its least m cannot hold") {
    // 6 of 20 outside leaves 14/20 = 0.7, so m = 0.7 holds until the 7th.
    assert(callsOn(col(0, 20), 0.9, 0.7, 0.8) == 7)
  }

  test("a covering column costs n calls") {
    Seq(1, 2, 7, 20, 33).foreach(n => assert(callsOn(col(n, 0), 0.6, 1.0) == n, s"n=$n"))
  }

  test("the exact pre-condition boundary: 12 of 20 within at m = 0.6 covers, 11 does not, in any order") {
    val (m, _) = model(0.6)
    val within12 = col(12, 8)
    val within11 = col(11, 9)
    Seq(within12, within12.reverse, within12.sortBy(_.hashCode)).foreach { vs =>
      val e = m.explainColumn(vs)
      assert(e.covering.map(_.m) == Seq(0.6))
      assert(e.flagged == (1 to 8).map(i => s"out$i" -> 0.9).toMap)
    }
    Seq(within11, within11.reverse).foreach { vs =>
      val e = m.explainColumn(vs)
      assert(e.covering.isEmpty && e.flagged.isEmpty)
    }
  }

  test("an evaluator dropped on the last value costs n calls and covers nothing") {
    // The 9th value outside, 11/20 < 0.6, is the last one.
    val vs = col(0, 8) ++ col(11, 0) :+ "out9"
    val (m, eval) = model(0.6)
    val e = m.explainColumn(vs)
    assert(eval.calls.get == 20)
    assert(e.covering.isEmpty && e.flagged.isEmpty)
  }

  test("empty and one-value columns") {
    val (m, eval) = model(0.6, 1.0)
    assert(m.predictColumn(Nil).isEmpty && m.explainColumn(Nil).covering.isEmpty)
    assert(eval.calls.get == 0)
    assert(m.explainColumn(Seq("in1")).covering.map(_.m) == Seq(0.6, 1.0))
    assert(m.predictColumn(Seq("out1")).isEmpty && m.explainColumn(Seq(null)).covering.isEmpty)
    assert(eval.calls.get == 3)
  }

  test("batch prediction drops evaluators per column: three columns outside d_in cost 3 calls each") {
    val (m, eval) = model(0.9)
    val cols = (1 to 3).map(c => TableColumn(s"c$c", "d", (1 to 20).map(i => s"out$c-$i"), Nil, 20))
    assert(m.predictions(cols).isEmpty)
    assert(eval.calls.get == 9) // (20 - 3) / 20 = 0.85 < 0.9
  }

  test("dropping one evaluator leaves the other's n calls unchanged") {
    val a = new CallCountingEval("count:a", isIn)
    val b = new CallCountingEval("count:b", _ => false)
    val sdcs = IndexedSeq(Sdc(a.id, 0.0, 0.5, 0.8, 0.9), Sdc(b.id, 0.0, 0.5, 0.8, 0.7))
    val values = col(20, 0)
    new SdcModel(sdcs, new EvalRegistry(IndexedSeq(a, b))).predictColumn(values)
    assert(b.calls.get == 5) // (20 - 5) / 20 = 0.75 < 0.8
    assert(a.calls.get == 20)
    assert(callsOn(values, 0.8) == a.calls.get)
  }
}
