package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.rng.Seed
import repro.{Oracle, SparkSpec}
import repro.corpus.TableColumn
import repro.dists.{CtaClassifier, EmbeddingCentroidEval, EvalRegistry, FunctionEval, PatternEval}
import repro.domains.Vocab
import repro.util.Det

class AssessmentSpec extends SparkSpec {

  import spark.implicits._

  // A tiny registry with a single pattern evaluator keeps counts auditable.
  private val patEval = new PatternEval("\\d+ [a-zA-Z]+")
  private val registry = new EvalRegistry(IndexedSeq(patEval))
  private val plans = CandidateGen.enumerate(registry)

  // 30 unit columns (all match), 1 unit column with an error, 30 other columns.
  private def unitCol(i: Int, withError: Boolean): TableColumn = {
    val base = (1 to 20).map(j => s"${i * 40 + j} oz")
    TableColumn(s"unit$i", "unit", if (withError) base :+ "oops" else base, Nil, 20)
  }
  private val corpus: Seq[TableColumn] =
    (0 until 30).map(i => unitCol(i, withError = false)) ++
    Seq(unitCol(99, withError = true)) ++
    (0 until 30).map(i => TableColumn(s"name$i", "name",
      (1 to 20).map(j => s"word${i}x$j"), Nil, 20))

  private lazy val counts = Assessment.contingency(spark, corpus.toDS(), plans)

  test("contingency counts sum to the corpus size for every candidate") {
    plans.head.candidates.foreach { c =>
      val s = (0 until 4).map(k => counts(c.idx * 4 + k)).sum
      assert(s == corpus.size, s"candidate ${c.idx}")
    }
  }

  test("an empty column lands in the ncnt cell, so the cells still sum to |C|") {
    val withEmpty = corpus :+ TableColumn("empty", "none", Nil, Nil, 0)
    val c = Assessment.contingency(spark, withEmpty.toDS(), plans)
    plans.head.candidates.foreach { cand =>
      assert((0 until 4).map(k => c(cand.idx * 4 + k)).sum == withEmpty.size, s"candidate ${cand.idx}")
      assert(c(cand.idx * 4 + 3) == counts(cand.idx * 4 + 3) + 1)
    }
  }

  test("contingency is identical at 1, 4 and 64 partitions") {
    val evals = IndexedSeq(patEval, new EmbeddingCentroidEval(EvalRegistry.gloveEmbedding, "january")) ++
      FunctionEval.allEvals
    val mixedPlans = CandidateGen.enumerate(new EvalRegistry(evals))
    val genValue = Gen.oneOf(
      Gen.choose(1, 99).map(i => s"$i oz"),
      Gen.choose(1, 12).map(i => s"$i/5/2020"),
      Gen.oneOf("january", "march", "june", "febuary", "seattle", "oops", ""))
    val genColumn = Gen.zip(Gen.identifier, Gen.choose(0, 20).flatMap(Gen.listOfN(_, genValue)))
      .map { case (id, vs) => TableColumn(id, "gen", vs, Nil, vs.size.toLong) }
    val prop = Prop.forAll(Gen.choose(0, 40).flatMap(Gen.listOfN(_, genColumn))) { cols =>
      val byPartitions = Seq(1, 4, 64).map { k =>
        Assessment.contingency(spark, spark.createDataset(spark.sparkContext.parallelize(cols, k)), mixedPlans).toSeq
      }
      byPartitions.distinct.size == 1
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(8).withInitialSeed(Seed(7L)), prop)
    assert(result.passed, result.status)
  }

  test("contingency equals the per-evaluator distance reference for all four families") {
    val ref = PerValueReference
    val mixedPlans = CandidateGen.enumerate(ref.mixedRegistry)
    val got = Assessment.contingency(spark, ref.corpus.toDS(), mixedPlans)
    assert(got.toSeq == ref.contingency(ref.corpus, mixedPlans).toSeq)
    assert(mixedPlans.exists(p => p.eval.family == repro.dists.DomainEval.Embedding &&
      p.candidates.exists(c => got(c.idx * 4) + got(c.idx * 4 + 1) > 0)), "no embedding candidate covers a column")
  }

  test("count equals the per-value reference on generated corpora and candidate lists") {
    val evals = IndexedSeq(patEval, new EmbeddingCentroidEval(EvalRegistry.gloveEmbedding, "january"),
      CtaClassifier.sherlockBank(Vocab.nlDomains).head) ++ FunctionEval.allEvals.take(2)
    val reg = new EvalRegistry(evals)
    val grid = CandidateGen.enumerate(reg).flatMap(_.candidates.map(_.toSdc(0.0)))
    val genValue = Gen.oneOf(
      Gen.choose(1, 99).map(i => s"$i oz"),
      Gen.choose(1, 12).map(i => s"$i/5/2020"),
      Gen.oneOf("january", "march", "germany", "febuary", "seattle", "oops", ""))
    // Empty, one-value and repeated-value columns, and 19 of 20 values in
    // the pattern's domain, exactly on the m = 0.95 grid point.
    val genValues: Gen[Seq[String]] = Gen.frequency(
      1 -> Gen.const(Nil),
      1 -> genValue.map(Seq(_)),
      2 -> Gen.zip(genValue, Gen.choose(2, 6), Gen.listOf(genValue)).map { case (v, n, rest) => Seq.fill(n)(v) ++ rest },
      2 -> Gen.oneOf("oops", "january", "12/5/2020").map(bad => (1 to 19).map(i => s"$i oz") :+ bad),
      4 -> Gen.choose(0, 20).flatMap(Gen.listOfN(_, genValue)))
    val genColumn = Gen.zip(Gen.identifier, genValues).map { case (id, vs) => TableColumn(id, "gen", vs, Nil, vs.size.toLong) }
    // Grid candidates in arbitrary order, some repeated, so that several
    // share (d_in, m) and a plan holds only part of its grid.
    val genSdcs = Gen.zip(Gen.someOf(grid), Gen.someOf(grid), Gen.choose(0L, 1000L))
      .map { case (some, again, seed) => Det.shuffle(seed, (some ++ again.take(8)).toIndexedSeq) }
      .suchThat(_.nonEmpty)
    val prop = Prop.forAll(Gen.choose(0, 30).flatMap(Gen.listOfN(_, genColumn)), genSdcs) { (cols, sdcs) =>
      val sdcPlans = CandidateGen.plansFor(sdcs, reg)((eval, _) => CandidateGen.thresholds(eval))
      val got = Assessment.count(cols, ValueCodes(cols.iterator.flatMap(_.values), sdcPlans), sdcPlans)
      got.toSeq == PerValueReference.contingency(cols, sdcPlans).toSeq
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(60).withInitialSeed(Seed(21L)), prop)
    assert(result.passed, result.status)
  }

  test("contingency matches hand computation for m=0.95 pattern candidate") {
    val c = plans.head.candidates.find(_.m == 0.95).get
    val ct   = counts(c.idx * 4)     // covered & triggered: the error column
    val cnt  = counts(c.idx * 4 + 1) // covered & clean: 30 unit columns
    val nct  = counts(c.idx * 4 + 2)
    val ncnt = counts(c.idx * 4 + 3)
    assert(ct == 1, s"ct=$ct")       // 20/21 ≈ 0.952 >= 0.95, "oops" triggers
    assert(cnt == 30)
    assert(nct == 30)                // name columns: nothing matches → all "triggered"
    assert(ncnt == 0)
  }

  test("contingency counts agree with a DuckDB re-computation (oracle)") {
    // Reproduce covered/triggered per column relationally and cross-check.
    import org.apache.spark.sql.functions._
    val c = plans.head.candidates.find(_.m == 0.95).get
    val rows = corpus.map { col =>
      val dists = col.values.map(patEval.distance)
      val covered = dists.count(_ <= c.dIn).toDouble / dists.size >= c.m
      val triggered = dists.exists(_ > c.dOut)
      (col.colId, if (covered) 1 else 0, if (triggered) 1 else 0)
    }.toDF("col_id", "covered", "triggered")
    val agg = rows.select(
      sum(when(col("covered") === 1 && col("triggered") === 1, 1).otherwise(0)).cast("long").as("ct"),
      sum(when(col("covered") === 1 && col("triggered") === 0, 1).otherwise(0)).cast("long").as("cnt"),
      sum(when(col("covered") === 0 && col("triggered") === 1, 1).otherwise(0)).cast("long").as("nct"),
      sum(when(col("covered") === 0 && col("triggered") === 0, 1).otherwise(0)).cast("long").as("ncnt"))
    Oracle.assertEquivalent(
      agg,
      """SELECT
        |  SUM(CASE WHEN covered = '1' AND triggered = '1' THEN 1 ELSE 0 END) AS ct,
        |  SUM(CASE WHEN covered = '1' AND triggered = '0' THEN 1 ELSE 0 END) AS cnt,
        |  SUM(CASE WHEN covered = '0' AND triggered = '1' THEN 1 ELSE 0 END) AS nct,
        |  SUM(CASE WHEN covered = '0' AND triggered = '0' THEN 1 ELSE 0 END) AS ncnt
        |FROM rows""".stripMargin,
      "rows" -> rows)
    // and the distributed pass agrees with the relational recomputation
    val r = agg.collect()(0)
    assert(r.getLong(0) == counts(c.idx * 4))
    assert(r.getLong(1) == counts(c.idx * 4 + 1))
    assert(r.getLong(2) == counts(c.idx * 4 + 2))
    assert(r.getLong(3) == counts(c.idx * 4 + 3))
  }

  test("assess keeps well-separated candidates and calibrates confidence") {
    val assessed = Assessment.assess(plans, counts, corpus.size.toLong, Assessment.AssessConfig())
    assert(assessed.nonEmpty)
    val best = assessed.maxBy(_.sdc.confidence)
    assert(best.sdc.evalId == patEval.id)
    assert(best.sdc.confidence > 0.8 && best.sdc.confidence < 1.0)
    assert(best.effectSize >= 0.8)
    assert(best.pValue <= 0.05)
  }

  test("assess prunes candidates with insufficient coverage (Appendix B.1)") {
    // Ten clean date columns: validate_date's candidates cover 10 columns,
    // below the cut, and would pass every other gate.
    val dateEval = FunctionEval.allEvals.find(_.id == "fun:validate_date").get
    val dates = (0 until 10).map(i => TableColumn(s"date$i", "date",
      (1 to 20).map(j => s"${j % 12 + 1}/${i + 1}/2020"), Nil, 20))
    val withDates = corpus ++ dates
    val dPlans = CandidateGen.enumerate(new EvalRegistry(IndexedSeq(patEval, dateEval)))
    val dCounts = Assessment.contingency(spark, withDates.toDS(), dPlans)
    val survivors = Assessment.assess(dPlans, dCounts, withDates.size.toLong, Assessment.AssessConfig())
    val cut = Stats.minCoverageFor(0.9)
    assert(survivors.exists(_.sdc.evalId == patEval.id))
    survivors.foreach(a => assert(a.counts.nCovered >= cut, a.sdc))
    val dateCands = dPlans(1).candidates.map { c =>
      val b = c.idx * 4
      (c, Assessment.ContingencyCounts(dCounts(b), dCounts(b + 1), dCounts(b + 2), dCounts(b + 3)))
    }
    assert(dateCands.nonEmpty)
    dateCands.foreach { case (c, cc) =>
      assert(cc.nCovered == dates.size && cc.nCovered < cut, c)
      assert(Stats.cohensH(cc.rhoBar, cc.rho) >= Assessment.HThreshold, c)
      assert(Stats.chiSquaredPValue1Dof(Stats.chiSquared2x2(cc.ct, cc.cnt, cc.nct, cc.ncnt)) <= Assessment.PThreshold, c)
      assert(Stats.wilsonConfidence(cc.ct, cc.cnt) > 0, c)
    }
    assert(!survivors.exists(_.sdc.evalId == dateEval.id))
  }

  test("FPR estimate is the noise-debiased ct / |C| (footnote 5)") {
    val assessed = Assessment.assess(plans, counts, corpus.size.toLong, Assessment.AssessConfig())
    assessed.foreach { a =>
      val expected = math.max(0.0,
        a.counts.ct - Assessment.CorpusDirtyRate * a.counts.nCovered) / corpus.size
      assert(math.abs(a.fpr - expected) < 1e-12)
      assert(a.fpr <= a.counts.ct.toDouble / corpus.size) // never above the raw ratio
    }
  }

  test("no-Wilson ablation yields higher (less safe) confidence") {
    val wilson = Assessment.assess(plans, counts, corpus.size.toLong,
      Assessment.AssessConfig(useWilson = true))
    val plain = Assessment.assess(plans, counts, corpus.size.toLong,
      Assessment.AssessConfig(useWilson = false))
    val wMap = wilson.map(a => (a.sdc.evalId, a.sdc.dIn, a.sdc.dOut, a.sdc.m) -> a.sdc.confidence).toMap
    plain.foreach { a =>
      wMap.get((a.sdc.evalId, a.sdc.dIn, a.sdc.dOut, a.sdc.m)).foreach { wc =>
        assert(a.sdc.confidence >= wc)
      }
    }
  }

  test("adversarial random-hash evaluators are rejected (Sec 6.5 robustness)") {
    // A hash-based pseudo-evaluator has no domain structure: coverage of any
    // (dIn, m) cell is arbitrary and triggers are uniform → the statistical
    // tests must reject all its candidates.
    val hashEval = new repro.dists.DomainEval {
      override val id = "hash:adversarial"
      override val family = repro.dists.DomainEval.Cta
      override def distance(v: String): Double = repro.util.Det.uniform(repro.util.Det.hashString(v))
    }
    val reg = new EvalRegistry(IndexedSeq(hashEval))
    val hPlans = CandidateGen.enumerate(reg)
    val hCounts = Assessment.contingency(spark, corpus.toDS(), hPlans)
    val survivors = Assessment.assess(hPlans, hCounts, corpus.size.toLong, Assessment.AssessConfig())
    assert(survivors.isEmpty, s"adversarial candidates survived: ${survivors.map(_.sdc)}")
  }
}
