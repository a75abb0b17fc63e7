package repro.core

/** One evaluator's distances over one column, counted at that evaluator's
  * sorted threshold edges (DESIGN §5 "histogram trick").
  *
  * This is the single evaluation of Definition 2 behind the corpus
  * contingency table (Sec 5.2), the recall sets D(r) (Sec 5.3) and online
  * prediction (App. B.2): the pre-condition "≥ m of f_t(v) ≤ d_in" is
  * [[covers]], the trigger "some f_t(v) > d_out" is [[triggers]], and the
  * post-condition reads [[dists]]. Thresholds are passed as indices into
  * `edges`, so every candidate of an evaluator is decided from one pass.
  * `dists` is one row of a [[repro.dists.EvalBank]]'s distance matrix.
  */
final class ColumnProfile(val dists: Array[Double], edges: Array[Double]) {

  private val n = dists.length

  /** within(i) = #values with distance <= edges(i): a histogram whose
    * bucket i holds edges(i-1) < d <= edges(i), then prefix-summed.
    */
  private val cumulative: Array[Int] = {
    val c = new Array[Int](edges.length + 1)
    var i = 0
    while (i < n) { c(bucket(dists(i))) += 1; i += 1 }
    var b = 1
    while (b < c.length) { c(b) += c(b - 1); b += 1 }
    c
  }

  private def bucket(d: Double): Int = {
    var b = 0
    while (b < edges.length && d > edges(b)) b += 1
    b
  }

  private[core] def within(edge: Int): Int = cumulative(edge)

  /** Pre-condition: at least a fraction `m` of the values lie within edges(edge). */
  def covers(edge: Int, m: Double): Boolean = n > 0 && within(edge).toDouble / n >= m

  /** [[covers]] of this column plus one more value at distance `d`, without
    * re-profiling: a C_syn column C(v^e) is a base column plus v^e.
    */
  def coversWith(d: Double, edge: Int, m: Double): Boolean =
    (within(edge) + (if (bucket(d) <= edge) 1 else 0)).toDouble / (n + 1) >= m

  /** Some value lies beyond edges(edge). */
  def triggers(edge: Int): Boolean = within(edge) < n
}
