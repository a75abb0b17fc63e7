package repro.dists

import org.scalacheck.Gen
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.domains.Vocab
import repro.linalg.LinAlg

class SynthEmbeddingSpec extends AnyFunSuite {

  private val glove = EvalRegistry.gloveEmbedding
  private val sbert = EvalRegistry.sbertEmbedding

  /** Euclidean distance between two values in `e`'s space. */
  private def dist(e: SynthEmbedding, a: String, b: String): Double = LinAlg.euclidean(e.embed(a), e.embed(b))

  test("embedding is deterministic") {
    assert(glove.embed("seattle").toSeq == glove.embed("seattle").toSeq)
    assert(sbert.embed("hello world").toSeq == sbert.embed("hello world").toSeq)
  }

  test("same-domain common words cluster (months)") {
    val d = dist(glove, "january", "february")
    assert(d < 4.0, s"january-february glove distance $d")
  }

  test("cross-domain words are far apart (month vs color — the paper's example)") {
    val near = dist(glove, "january", "march")
    val far  = dist(glove, "january", "yellow")
    assert(far > near * 1.5, s"near=$near far=$far")
  }

  test("typos are far from their source word (OOV hash vectors)") {
    val ok   = dist(glove, "seattle", "chicago")
    val typo = dist(glove, "seattle", "seattel")
    assert(typo > ok * 1.5, s"ok=$ok typo=$typo")
  }

  test("glove does not know uncommon vocabulary (Example 2 'omayra' effect)") {
    // An uncommon-but-valid city lands far in GloVe-sim...
    val uncommonCity = Vocab.city.uncommon.head
    val gd = dist(glove, "seattle", uncommonCity)
    // ...but near in SBERT-sim, which knows the full vocabulary.
    val sd = dist(sbert, "seattle", uncommonCity)
    val sNear = dist(sbert, "seattle", "chicago")
    assert(gd > 5.0, s"glove should treat '$uncommonCity' as OOV, got $gd")
    assert(sd < sNear * 3.0, s"sbert should keep '$uncommonCity' near cities: $sd vs $sNear")
  }

  test("sbert distances are ~4x smaller than glove (paper scale difference)") {
    val g = dist(glove, "january", "february")
    val s = dist(sbert, "january", "february")
    assert(s < g, s"sbert=$s glove=$g")
  }

  test("sbert separates in-domain from typo") {
    val near = dist(sbert, "seattle", "chicago")
    val typo = dist(sbert, "seattle", "seattel")
    assert(typo > near * 1.5, s"near=$near typo=$typo")
  }

  test("multiword values embed via token averaging") {
    val d = dist(glove, "new york", "new jersey") // shared token pulls them together
    val far = dist(glove, "new york", "12 oz")
    assert(d < far)
  }

  test("empty value embeds without crashing") {
    assert(glove.embed("").length == SynthEmbedding.Dim)
    assert(sbert.embed("  ").length == SynthEmbedding.Dim)
  }

  test("EmbeddingCentroidEval implements Definition 1") {
    val e = new EmbeddingCentroidEval(glove, "january")
    assert(e.id == "emb:glove:january")
    assert(e.family == DomainEval.Embedding)
    assert(e.distance("january") < 1e-9)
    assert(e.distance("february") < e.distance("yellow"))
  }

  test("centroid eval reproduces the r_3 scenario: months near, errors far") {
    val e = new EmbeddingCentroidEval(glove, "january")
    val monthDists = Vocab.months.filterNot(_ == "january").map(e.distance)
    val typoDist = e.distance("febuary") // Fig 2's real typo
    assert(typoDist > monthDists.max, s"typo $typoDist vs months ${monthDists.max}")
  }

  test("normalization applies before embedding") {
    assert(dist(glove, "Seattle", "seattle") < 1e-9)
  }

  test("tokenize equals String.split on whitespace runs, edge spaces and surrogate pairs") {
    // \u000B is \s; \u00A0 and \u2003 are not.
    val chars = Gen.oneOf(' ', ' ', '\t', '\n', '\r', '\f', '\u000B', '\u00A0', '\u2003', 'a', 'b', 'z', '7', 'é', '東')
    val piece = Gen.frequency(5 -> chars.map(_.toString), 1 -> Gen.oneOf("😀", "𝔘", "\uD83D", "\uDE00"))
    val random = Gen.listOfN(5000, Gen.choose(0, 12).flatMap(n => Gen.listOfN(n, piece).map(_.mkString)))
      .pureApply(Gen.Parameters.default, Seed(17L))
    val strings = random.zipWithIndex.map { case (s, i) => if (i % 4 == 0) s"  $s " else s } ++
      Seq("", " ", "  a  b  ", "\u000B", "a\u00A0b", "a\u2003b")
    strings.foreach { s =>
      assert(SynthEmbedding.tokenize(s).toSeq == s.split("\\s+").filter(_.nonEmpty).toSeq, s)
    }
    assert(SynthEmbedding.tokenize("a\u000Bb").toSeq == Seq("a", "b"))
    assert(SynthEmbedding.tokenize(" a\u00A0b\u2003c ").toSeq == Seq("a\u00A0b\u2003c"))
  }
}
