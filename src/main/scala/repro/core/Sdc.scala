package repro.core

/** A Semantic-Domain Constraint (paper Definition 2): pre-condition
  * `>= m of column values have f_t(v) <= dIn`, post-condition `values with
  * f_t(v) > dOut are errors`, with calibrated confidence.
  *
  * The evaluator is referenced by id; [[SdcModel]] resolves it and
  * evaluates the conditions through [[ColumnProfile]].
  */
final case class Sdc(
    evalId: String,
    dIn: Double,
    dOut: Double,
    m: Double,
    confidence: Double,
) {
  require(dOut > dIn, s"SDC needs dOut > dIn (got dIn=$dIn dOut=$dOut)")
  require(m > 0 && m <= 1, s"matching-percentage must be in (0,1], got $m")
}
