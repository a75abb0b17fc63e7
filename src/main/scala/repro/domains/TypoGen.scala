package repro.domains

import java.util.Locale

import repro.util.Det

/** Deterministic typo generator for error injection.
  *
  * Produces the paper's "typo" error class (Fig 2: "Liechstein", "febuary",
  * "farimont") via single character-level edits. The edit kind and position
  * are pure functions of the seed, so benchmarks are bit-stable.
  */
object TypoGen {

  private val letters = "abcdefghijklmnopqrstuvwxyz"

  /** One character-level typo of `v`; guaranteed to differ from `v`. */
  def typo(v: String, seed: Long): String = {
    require(v.nonEmpty, "cannot inject a typo into an empty value")
    var attempt = 0
    var out = v
    while (out == v && attempt < 8) {
      out = edit(v, Det.combine(seed, attempt.toLong))
      attempt += 1
    }
    // Degenerate inputs (e.g. single repeated char) fall back to appending.
    if (out == v) v + letters((Det.mix64(seed) & 0x7fffffff).toInt % 26) else out
  }

  private def edit(v: String, seed: Long): String = {
    val kind = Det.nextInt(Det.combine(seed, 0x5e), if (v.length >= 2) 4 else 2)
    val pos  = Det.nextInt(Det.combine(seed, 0x9a), v.length)
    kind match {
      case 0 => // substitute with a random letter
        val c = letters(Det.nextInt(Det.combine(seed, 0x11), 26))
        v.updated(pos, c)
      case 1 => // duplicate the char at pos
        v.substring(0, pos) + v.charAt(pos) + v.substring(pos)
      case 2 => // delete the char at pos
        v.substring(0, pos) + v.substring(pos + 1)
      case _ => // transpose adjacent chars
        val p = math.min(pos, v.length - 2)
        v.substring(0, p) + v.charAt(p + 1) + v.charAt(p) + v.substring(p + 2)
    }
  }

  /** A typo that is additionally not a member of `valid` (avoids edits that
    * accidentally land on another valid value, which would not be an error).
    */
  def typoAvoiding(v: String, seed: Long, valid: Set[String]): String = {
    def isValid(x: String) = valid.contains(x) || valid.contains(x.toLowerCase(Locale.ROOT))
    var attempt = 0
    var out = typo(v, seed)
    while (isValid(out) && attempt < 16) {
      attempt += 1
      out = typo(v, Det.combine(seed, 0x77L, attempt.toLong))
    }
    if (isValid(out)) v + "~" else out // last-resort marker, never valid
  }
}
