package repro.core

/** One evaluator's values over one column, counted at that evaluator's
  * sorted threshold edges (DESIGN §5 "histogram trick").
  *
  * This is the single evaluation of Definition 2 behind the corpus
  * contingency table (Sec 5.2), the recall sets D(r) (Sec 5.3) and online
  * prediction (App. B.2): the pre-condition "≥ m of f_t(v) ≤ d_in" is
  * [[covers]] and the trigger "some f_t(v) > d_out" is [[triggers]].
  * Thresholds are passed as indices into the edges, so every candidate of an
  * evaluator is decided from one pass.
  *
  * A value enters the histogram as its edge-bucket code
  * ([[ColumnProfile.bucket]]). Since `d > edges(k)` holds exactly when
  * `bucket(d) > k`, the code is all Definition 2 needs of a distance: the
  * corpus passes and prediction count codes looked up by value id
  * ([[ColumnProfile.fromCodes]]).
  */
final class ColumnProfile private (cumulative: Array[Int]) {

  /** Profile of one row of distances at the sorted, distinct `edges`. */
  def this(dists: Array[Double], edges: Array[Double]) =
    this(ColumnProfile.histogram(edges.length, dists.length)(i => ColumnProfile.bucket(dists(i), edges)))

  /** Number of values profiled. */
  val size: Int = cumulative(cumulative.length - 1)

  /** within(i) = #values with distance <= edges(i). */
  private[core] def within(edge: Int): Int = cumulative(edge)

  /** Pre-condition: at least a fraction `m` of the values lie within edges(edge). */
  def covers(edge: Int, m: Double): Boolean = size > 0 && within(edge).toDouble / size >= m

  /** [[covers]] of this column plus one more value with edge-bucket `code`,
    * without re-profiling: a C_syn column C(v^e) is a base column plus v^e.
    */
  def coversWith(code: Int, edge: Int, m: Double): Boolean =
    (within(edge) + (if (code <= edge) 1 else 0)).toDouble / (size + 1) >= m

  /** Some value lies beyond edges(edge). */
  def triggers(edge: Int): Boolean = within(edge) < size
}

object ColumnProfile {

  /** Edge-bucket code of distance `d` at sorted, distinct `edges`: the number
    * of edges below `d`, so bucket k holds edges(k-1) < d <= edges(k) and
    * `d > edges(k)` exactly when `bucket(d, edges) > k`. NaN compares false
    * with every edge and goes to bucket 0, failing both tests as the distance
    * does.
    */
  def bucket(d: Double, edges: Array[Double]): Int = {
    var b = 0
    while (b < edges.length && d > edges(b)) b += 1
    b
  }

  /** Profile of the values `ids` whose codes at `nEdges` edges are
    * `codes(id)`: the same histogram the distance constructor builds.
    */
  def fromCodes(codes: Array[Byte], ids: Array[Int], nEdges: Int): ColumnProfile =
    new ColumnProfile(histogram(nEdges, ids.length)(i => codes(ids(i))))

  /** Bucket counts of `n` codes, prefix-summed: index i holds the values in
    * buckets 0..i, and the last index holds n.
    */
  private def histogram(nEdges: Int, n: Int)(code: Int => Int): Array[Int] = {
    val c = new Array[Int](nEdges + 1)
    var i = 0
    while (i < n) { c(code(i)) += 1; i += 1 }
    var b = 1
    while (b < c.length) { c(b) += c(b - 1); b += 1 }
    c
  }
}
