package repro.core

/** One evaluator's values over one column, counted at that evaluator's
  * sorted threshold edges (DESIGN §5 "histogram trick").
  *
  * This is the single evaluation of Definition 2 behind the corpus
  * contingency table (Sec 5.2), the recall sets D(r) (Sec 5.3) and online
  * prediction (App. B.2): the pre-condition "≥ m of f_t(v) ≤ d_in" is
  * [[covers]] and the trigger "some f_t(v) > d_out" is [[triggers]].
  * Thresholds are passed as indices into the edges, so every candidate of an
  * evaluator is decided from one pass; the contingency pass asks
  * [[coveredMs]] once per d_in for how many of the grid's m the column
  * covers, instead of [[covers]] once per candidate. Every in-domain
  * fraction, here and in the prediction kernel's drop rule, is compared with
  * m by [[ColumnProfile.inDomain]].
  *
  * A value enters the histogram as its edge-bucket code
  * ([[ColumnProfile.bucket]]). Since `d > edges(k)` holds exactly when
  * `bucket(d) > k`, the code is all Definition 2 needs of a distance: all
  * three passes profile a column with the one factory
  * [[ColumnProfile.fromCodes]], from codes looked up by value id (the corpus
  * passes) or by the column's own positions (prediction).
  */
final class ColumnProfile private (cumulative: Array[Int]) {

  /** Number of values profiled. */
  val size: Int = cumulative(cumulative.length - 1)

  /** within(i) = #values with distance <= edges(i). */
  private[core] def within(edge: Int): Int = cumulative(edge)

  /** Pre-condition: at least a fraction `m` of the values lie within edges(edge). */
  def covers(edge: Int, m: Double): Boolean = ColumnProfile.inDomain(within(edge), size, m)

  /** How many of the ascending `ms` this column [[covers]] at edges(edge):
    * the column covers exactly `ms(0 until r)`, so a candidate whose m is
    * `ms(q)` is covered iff q < r. An empty column covers none.
    */
  def coveredMs(edge: Int, ms: Array[Double]): Int = {
    val w = within(edge)
    var r = 0
    while (r < ms.length && ColumnProfile.inDomain(w, size, ms(r))) r += 1
    r
  }

  /** [[covers]] of this column plus one more value with edge-bucket `code`,
    * without re-profiling: a C_syn column C(v^e) is a base column plus v^e.
    */
  def coversWith(code: Int, edge: Int, m: Double): Boolean =
    ColumnProfile.inDomain(within(edge) + (if (code <= edge) 1 else 0), size + 1, m)

  /** Some value lies beyond edges(edge). */
  def triggers(edge: Int): Boolean = within(edge) < size
}

object ColumnProfile {

  /** Definition 2's pre-condition on counts: at least a fraction `m` of
    * `size` values are in-domain (`within` of them lie within d_in). Empty
    * columns are never in-domain.
    */
  def inDomain(within: Int, size: Int, m: Double): Boolean = size > 0 && within.toDouble / size >= m

  /** Edge-bucket code of distance `d` at sorted, distinct `edges`: the number
    * of edges below `d`, so bucket k holds edges(k-1) < d <= edges(k) and
    * `d > edges(k)` exactly when `bucket(d, edges) > k`.
    *
    * NaN compares false with every edge and goes to bucket 0. In bucket 0 it
    * counts as within every edge for `covers`, and `triggers` never fires on
    * it; the distance itself fails `d <= d_in` as well as `d > d_out`, so
    * the code and the distance disagree on the pre-condition. Definition 2
    * assumes the distances >= 0 that `DomainEval.distance` promises.
    */
  def bucket(d: Double, edges: Array[Double]): Int = {
    var b = 0
    while (b < edges.length && d > edges(b)) b += 1
    b
  }

  /** Profile of the values `ids` whose codes at `nEdges` edges are
    * `codes(id)`: bucket counts, prefix-summed, so index i holds the values
    * in buckets 0..i and the last index holds `ids.length`.
    */
  def fromCodes(codes: Array[Byte], ids: Array[Int], nEdges: Int): ColumnProfile = {
    val c = new Array[Int](nEdges + 1)
    var i = 0
    while (i < ids.length) { c(codes(ids(i))) += 1; i += 1 }
    var b = 1
    while (b < c.length) { c(b) += c(b - 1); b += 1 }
    new ColumnProfile(c)
  }
}
