package repro.baselines

import org.scalatest.funsuite.AnyFunSuite
import repro.corpus.TableColumn
import repro.domains.Vocab
import repro.experiments.Baselines

class GptSimSpec extends AnyFunSuite {

  private def col(id: String, vals: Seq[String]) = TableColumn(id, "d", vals, Nil, vals.size.toLong)

  test("entityDomains maps common entities to their domains") {
    assert(GptSim.domainsOf("germany").contains("country"))
    assert(GptSim.domainsOf("seattle").contains("city"))
    assert(GptSim.domainsOf("qzwxv").isEmpty)
  }

  test("ambiguous entities carry multiple domains (georgia: state and name pool)") {
    // "may" is both a month and possibly a name; at minimum it's a month
    assert(GptSim.domainsOf("may").contains("month"))
  }

  test("majorityDomain recognises a clearly-topical column") {
    assert(GptSim.majorityDomain(Vocab.months).contains("month"))
    assert(GptSim.majorityDomain(Vocab.countriesCommon.take(15)).contains("country"))
  }

  test("majorityDomain abstains on mixed or unknown content") {
    assert(GptSim.majorityDomain(Seq("qq1", "qq2", "qq3", "qq4")).isEmpty)
    assert(GptSim.majorityDomain(Seq.empty).isEmpty)
  }

  test("semantic clash detection: a country inside a month column is flagged") {
    val c = col("m", Vocab.months :+ "germany")
    val det = Baselines("few-shot-with-COT")
    assert(det.detect(c).map(_._1).contains("germany"))
  }

  test("an in-topic entity is not (reliably) flagged") {
    val c = col("m", Vocab.months)
    val det = Baselines("few-shot-with-COT")
    // months themselves: at most stray hallucinations, never the whole column
    assert(det.detect(c).size <= 2)
  }

  test("all four prompt variants plus fine-tuned exist with distinct names") {
    val gpt = Baselines.group("GPT")
    assert(gpt.forall(_.isInstanceOf[GptSim]))
    assert(gpt.map(_.name).distinct.size == 5)
  }
}
