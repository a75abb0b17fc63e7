package repro.baselines

import repro.core.Prediction
import repro.corpus.TableColumn
import repro.util.Par

/** A per-column error detector — the shared shape of every baseline in paper
  * Sec 6.2. `detect` returns (value, score) pairs where a higher score means
  * more suspicious; scores only need to rank consistently (PR curves sweep
  * the threshold).
  */
trait ErrorDetector {
  def name: String
  def detect(col: TableColumn): Seq[(String, Double)]

  /** [[detect]] over a benchmark as predictions, in column order. The
    * columns run in parallel ([[Par]]): `detect` must be thread-safe.
    */
  final def predictions(cols: Seq[TableColumn]): IndexedSeq[Prediction] =
    Par.flatMapInOrder(cols)(col => detect(col).map { case (v, s) => Prediction(col.colId, v, s) })
}
