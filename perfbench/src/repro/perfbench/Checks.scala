package repro.perfbench

import java.nio.ByteBuffer
import java.nio.charset.StandardCharsets.UTF_8
import java.security.MessageDigest
import repro.core.AutoTest.TrainedModel
import repro.core.Prediction
import repro.core.Selection.SelectionResult

/** Output checks. Each returns the failures it found; empty means correct. */
object Checks {

  /** Every candidate's Table 2 cells add up to the corpus column count. */
  def contingency(m: TrainedModel): Seq[String] = {
    val c = m.contingencyCounts
    m.allPlans.iterator.flatMap(_.candidates).collectFirst {
      case cand if c(cand.idx * 4) + c(cand.idx * 4 + 1) + c(cand.idx * 4 + 2) + c(cand.idx * 4 + 3) != m.totalCols =>
        s"contingency: candidate ${cand.idx} cells do not sum to ${m.totalCols} columns"
    }.toSeq
  }

  /** A selection respects B_size and B_FPR, and rounding never beats the LP. */
  def budgets(label: String, r: SelectionResult, bSize: Int, bFpr: Double): Seq[String] = {
    val fpr = r.selected.iterator.map(_.fpr).sum
    Seq(
      (r.selected.size <= bSize) -> s"$label: ${r.selected.size} selected > B_size $bSize",
      (fpr <= bFpr + 1e-9) -> s"$label: sum of FPR $fpr > B_FPR $bFpr",
      (r.lpObjective >= r.roundedObjective - 1e-6 * math.max(1.0, math.abs(r.lpObjective))) ->
        s"$label: rounded objective ${r.roundedObjective} > LP objective ${r.lpObjective}",
    ).collect { case (false, msg) => msg }
  }

  def trainedModel(m: TrainedModel): Seq[String] =
    contingency(m) ++
      budgets("CSS", m.coarse, m.config.bSize, m.config.bFpr) ++
      budgets("FSS", m.fine, m.config.bSize, m.config.bFpr)

  /** Two trainings of the same inputs agree exactly (the program is
    * deterministic, so any difference is a defect).
    */
  def sameModel(a: TrainedModel, b: TrainedModel): Seq[String] = Seq(
    java.util.Arrays.equals(a.contingencyCounts, b.contingencyCounts) -> "contingency counts differ",
    (a.assessed == b.assessed) -> "R_all differs",
    (a.detections == b.detections) -> "detections differ",
    (a.coarse == b.coarse) -> "CSS selection differs",
    (a.fine == b.fine) -> "FSS selection differs",
  ).collect { case (false, msg) => s"model: $msg" }

  /** Spark batch prediction flags exactly the cells single-thread prediction does. */
  def samePredictions(label: String, single: Seq[Prediction], batch: Seq[Prediction]): Seq[String] =
    if (single.size == batch.size && single.toSet == batch.toSet) Nil
    else Seq(s"$label: Spark predicted ${batch.size} cells, single-thread ${single.size}, sets differ")

  def sameObjective(label: String, got: Double, want: Double): Seq[String] =
    if (math.abs(got - want) <= 1e-6 * math.max(1.0, math.abs(want))) Nil
    else Seq(s"$label: LP objective $got, recorded $want")

  // ------------------------------------------------------------- digests

  private def hex(md: MessageDigest): String = md.digest().take(12).map(b => f"${b & 0xff}%02x").mkString

  private def longs(md: MessageDigest, xs: Long*): Unit = {
    val buf = ByteBuffer.allocate(8 * xs.size)
    xs.foreach(buf.putLong)
    md.update(buf.array())
  }

  private def string(md: MessageDigest, s: String): Unit = {
    val b = s.getBytes(UTF_8)
    longs(md, b.length.toLong)
    md.update(b)
  }

  def countsDigest(counts: Array[Long]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    counts.grouped(1024).foreach(g => longs(md, g.toIndexedSeq: _*))
    hex(md)
  }

  def detectionsDigest(dets: Seq[(Int, Int)]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    dets.sorted.foreach { case (s, c) => longs(md, s.toLong, c.toLong) }
    hex(md)
  }

  def predictionsDigest(preds: Seq[Prediction]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    preds.sortBy(p => (p.colId, p.value)).foreach { p =>
      string(md, p.colId)
      string(md, p.value)
      longs(md, java.lang.Double.doubleToLongBits(p.confidence))
    }
    hex(md)
  }
}
