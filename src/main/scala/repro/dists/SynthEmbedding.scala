package repro.dists

import repro.domains.Vocab
import repro.linalg.LinAlg
import repro.util.Det

/** Synthetic text embeddings (substitute for GloVe / SentenceBERT, DESIGN §2).
  *
  * Geometry: each NL domain owns a centroid vector; every vocabulary word is
  * its domain centroid plus word-specific noise, so same-domain values
  * cluster (the paper's Fig 4/6 picture) while out-of-domain and corrupted
  * values land far away. Out-of-vocabulary tokens get hash-random vectors at
  * a large radius — reproducing GloVe's OOV failure on uncommon-but-valid
  * names (Example 2).
  *
  *  - GloVe-sim: word-level, knows only the *common* vocabulary head; 10% of
  *    words are "hard" (larger noise), multiword values average token
  *    vectors.
  *  - SBERT-sim: phrase-level, knows the *full* vocabulary (subword
  *    generalisation), tighter noise, and is scaled down ~4x (SentenceBERT
  *    distances in the paper are ~1.2 vs GloVe's ~4–7).
  */
final class SynthEmbedding private (
    val name: String,
    dim: Int,
    tokenVecs: java.util.HashMap[String, Array[Double]],
    phraseVecs: java.util.HashMap[String, Array[Double]],
    oovSigma: Double,
    globalScale: Double,
) {

  /** Embed a (raw) value; total function, never fails. */
  def embed(raw: String): Array[Double] = embedNormalized(DomainEval.normalize(raw))

  /** [[embed]] of a value already normalized by [[DomainEval.normalize]]. */
  private[dists] def embedNormalized(v: String): Array[Double] = {
    val phrase = phraseVecs.get(v)
    val vec =
      if (phrase != null) phrase
      else {
        val toks = SynthEmbedding.tokenize(v)
        if (toks.isEmpty) oovVector(v)
        else {
          val acc = new Array[Double](dim)
          var k = 0
          while (k < toks.length) {
            val known = tokenVecs.get(toks(k))
            val tv = if (known != null) known else oovVector(toks(k))
            var i = 0
            while (i < dim) { acc(i) += tv(i); i += 1 }
            k += 1
          }
          LinAlg.scale(acc, 1.0 / toks.length)
        }
      }
    LinAlg.scale(vec, globalScale)
  }

  private val nameHash = Det.hashString(name)
  private val oovHash = Det.hashString("oov")

  private def oovVector(t: String): Array[Double] = {
    val s = Det.combine(nameHash, oovHash, Det.hashString(t))
    val out = new Array[Double](dim)
    var i = 0
    while (i < dim) { out(i) = oovSigma * Det.gaussian(Det.combine(s, i.toLong)); i += 1 }
    out
  }
}

object SynthEmbedding {

  val Dim = 16

  /** The whitespace-separated tokens of `s`, as `s.split("\\s+")` gives them
    * with empty tokens dropped: the maximal runs of chars outside Java's
    * `\s` class: space, \t, \n, \f, \r and the vertical tab U+000B.
    */
  private[dists] def tokenize(s: String): Array[String] = {
    val out = scala.collection.mutable.ArrayBuffer.empty[String]
    var i = 0
    while (i < s.length) {
      while (i < s.length && isSpace(s.charAt(i))) i += 1
      val start = i
      while (i < s.length && !isSpace(s.charAt(i))) i += 1
      if (i > start) out += s.substring(start, i)
    }
    out.toArray
  }

  private def isSpace(c: Char): Boolean =
    c == ' ' || c == '\t' || c == '\n' || c == '\u000B' || c == '\f' || c == '\r'

  private val CentroidSigma = 1.6
  private val OovSigma      = 1.8

  /** A domain's centroid, shared by both models (GloVe and SBERT see the
    * same world); the model name only affects the word noise.
    */
  private def centroid(domainName: String): Array[Double] = {
    val s = Det.combine(Det.hashString("centroid"), Det.hashString(domainName))
    Array.tabulate(Dim)(i => CentroidSigma * Det.gaussian(Det.combine(s, i.toLong)))
  }

  private def noisyWord(embName: String, domainName: String, word: String,
                        sigma: Double, hardFrac: Double): Array[Double] = {
    val c = centroid(domainName)
    val ws = Det.combine(Det.hashString(embName), Det.hashString(domainName), Det.hashString(word))
    val s  = if (Det.uniform(Det.combine(ws, 0x4aad)) < hardFrac) sigma * 3.0 else sigma
    Array.tabulate(Dim)(i => c(i) + s * Det.gaussian(Det.combine(ws, i.toLong)))
  }

  /** Word-level GloVe-sim over the common heads of the NL domains. */
  def glove(): SynthEmbedding = {
    val tokens = new java.util.HashMap[String, Array[Double]]()
    Vocab.nlDomains.foreach { d =>
      d.common.foreach { w =>
        tokenize(w).foreach { tok =>
          // First domain to claim a token wins (e.g. "georgia" state/country).
          if (!tokens.containsKey(tok))
            tokens.put(tok, noisyWord("glove", d.name, tok, sigma = 0.40, hardFrac = 0.10))
        }
      }
    }
    new SynthEmbedding("glove", Dim, tokens, new java.util.HashMap(), OovSigma, globalScale = 1.0)
  }

  /** Phrase-level SBERT-sim over the full vocabularies of the NL domains. */
  def sbert(): SynthEmbedding = {
    val phrases = new java.util.HashMap[String, Array[Double]]()
    val tokens  = new java.util.HashMap[String, Array[Double]]()
    Vocab.nlDomains.foreach { d =>
      d.all.foreach { w =>
        if (!phrases.containsKey(w))
          phrases.put(w, noisyWord("sbert", d.name, w, sigma = 0.25, hardFrac = 0.08))
        tokenize(w).foreach { tok =>
          if (!tokens.containsKey(tok))
            tokens.put(tok, noisyWord("sbert", d.name, tok, sigma = 0.30, hardFrac = 0.08))
        }
      }
    }
    new SynthEmbedding("sbert", Dim, tokens, phrases, OovSigma, globalScale = 0.25)
  }
}

/** Embedding-based domain evaluation: distance of v to a fixed centroid value
  * (paper Eq 2 — e.g. Glove distance to "january" represents month-name).
  * [[EvalBank]] reads `emb` and `centroidVec` to embed each value once per
  * model for all centroids.
  */
final class EmbeddingCentroidEval(private[dists] val emb: SynthEmbedding, centroidValue: String)
    extends DomainEval {
  private[dists] val centroidVec: Array[Double] = emb.embed(centroidValue)
  override val id: String = s"emb:${emb.name}:$centroidValue"
  override def family: String = DomainEval.Embedding
  override def distance(v: String): Double = LinAlg.euclidean(emb.embed(v), centroidVec)
}
