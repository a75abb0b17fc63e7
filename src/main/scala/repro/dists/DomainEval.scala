package repro.dists

import java.util.Locale

/** Definition 1 (paper Sec 3): a domain-evaluation function f_t(v) measures
  * the distance between a semantic type t and a value v. Smaller is
  * "more in-domain".
  *
  * All four column-type detection families (CTA classifiers, embeddings,
  * patterns, validation functions) are standardised behind this interface so
  * the SDC machinery can reason about them uniformly. Passes share one
  * instance across threads, so `distance` must be thread-safe and bit-stable.
  */
trait DomainEval {

  /** Globally unique id, e.g. "cta:sherlock:city" or "pat:\\d+ [a-zA-Z]+". */
  def id: String

  /** Family tag: one of [[DomainEval.Cta]], [[DomainEval.Embedding]],
    * [[DomainEval.Pattern]], [[DomainEval.Function]].
    */
  def family: String

  /** Distance between this evaluator's type and value v; >= 0. */
  def distance(v: String): Double
}

object DomainEval {
  val Cta       = "cta"
  val Embedding = "embedding"
  val Pattern   = "pattern"
  val Function  = "function"

  val families: Seq[String] = Seq(Cta, Embedding, Pattern, Function)

  /** Canonical value normalisation read by the CTA, embedding and function
    * families: case-insensitive, whitespace-trimmed (tables in the wild mix
    * case). Case is mapped in `Locale.ROOT`, so distances do not depend on
    * the JVM's default locale. [[EvalBank]] normalizes each value once per
    * call for all three families; patterns read the raw value
    * ([[Patterns.generalize]] only trims).
    */
  def normalize(v: String): String =
    if (v == null) "" else v.trim.toLowerCase(Locale.ROOT)
}
