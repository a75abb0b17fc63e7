package repro.core

import repro.SparkSpec
import repro.corpus.TableColumn
import repro.dists.{EmbeddingCentroidEval, EvalRegistry, FunctionEval, PatternEval}

class PredictorSpec extends SparkSpec {

  // Hand-built model mirroring Table 1's constraints.
  private val patUnit = new PatternEval("\\d+ [a-zA-Z]+")
  private val patId   = new PatternEval("[a-zA-Z]+\\d+")
  private val funDate = FunctionEval.allEvals.find(_.id == "fun:validate_date").get
  private val embJan  = new EmbeddingCentroidEval(EvalRegistry.gloveEmbedding, "january")
  private val registry = new EvalRegistry(IndexedSeq(embJan, patUnit, patId, funDate))

  private val monthInner = {
    val dists = repro.domains.Vocab.months.map(embJan.distance)
    dists.max + 0.1
  }

  private val sdcs = IndexedSeq(
    Sdc(patUnit.id, 0.0, 0.5, 0.95, 0.90), // r6
    Sdc(patId.id,   0.0, 0.5, 0.95, 0.85), // r5
    Sdc(funDate.id, 0.0, 0.5, 0.90, 0.95), // r7
    Sdc(embJan.id,  monthInner, monthInner + 1.5, 0.85, 0.88), // r3
    Sdc(embJan.id,  monthInner, monthInner + 1.5, 0.80, 0.93), // r3 variant, same dOut
  )
  private val model = new SdcModel(sdcs, registry)

  private def col(id: String, vals: Seq[String], errs: Seq[String] = Nil) =
    TableColumn(id, "d", vals, errs, vals.size.toLong)

  /** Single-column prediction wrapped with the column id. */
  private def predictLocal(model: SdcModel, col: TableColumn): Seq[Prediction] =
    model.predictColumn(col.values).toSeq.map { case (v, c) => Prediction(col.colId, v, c) }

  test("pre-condition dedup collapses shared (evalId, dIn, m) groups") {
    assert(model.size == 5)
    assert(model.nPreConditions == 5) // the two emb variants differ in m
    val collapsed = new SdcModel(IndexedSeq(
      Sdc(patUnit.id, 0.0, 0.5, 0.95, 0.9),
      Sdc(patUnit.id, 0.0, 0.7, 0.95, 0.8)), registry)
    assert(collapsed.nPreConditions == 1)
  }

  test("detects the Fig 2 C6 unit error") {
    val c6 = (1 to 19).map(j => s"$j oz") :+ "0.05%"
    val preds = model.predictColumn(c6)
    assert(preds.keySet == Set("0.05%"))
    assert(preds("0.05%") == 0.90)
  }

  test("detects the Fig 2 C7 date error 'new facility'") {
    val c7 = (1 to 12).map(j => s"$j/10/2020") :+ "new facility"
    val preds = model.predictColumn(c7)
    assert(preds.keySet == Set("new facility"))
  }

  test("detects the month typo and reports the max confidence (Example 3)") {
    val months = repro.domains.Vocab.months.filterNot(_ == "february") :+ "febuary"
    val preds = model.predictColumn(months)
    assert(preds.contains("febuary"), preds)
    // both r3 variants trigger; max confidence 0.93 is reported
    assert(preds("febuary") == 0.93)
  }

  test("no prediction on columns no pre-condition covers") {
    val preds = model.predictColumn(Seq("alpha", "beta", "gamma", "delta", "epsilon"))
    assert(preds.isEmpty)
  }

  test("no false positives on clean covered columns") {
    val preds = model.predictColumn((1 to 20).map(j => s"item$j"))
    assert(preds.isEmpty) // all match [a-zA-Z]+\d+
  }

  test("empty column gives no predictions") {
    assert(model.predictColumn(Seq.empty).isEmpty)
  }

  test("predictLocal wraps predictions with the column id") {
    val preds = predictLocal(model, col("k", (1 to 19).map(j => s"$j oz") :+ "bad!"))
    assert(preds.map(_.colId).toSet == Set("k"))
    assert(preds.map(_.value) == Seq("bad!"))
  }

  test("batch predict matches per-column predict") {
    val cols = Seq(
      col("a", (1 to 19).map(j => s"$j oz") :+ "0.05%"),
      col("b", (1 to 12).map(j => s"$j/10/2020") :+ "nope"),
      col("c", Seq("alpha", "beta", "gamma", "delta", "epsilon")))
    val batch = Predictor.predict(spark, model, cols).toSet
    val local = cols.flatMap(c => predictLocal(model, c)).toSet
    assert(batch == local)
  }

  test("predictColumn equals the per-evaluator distance reference for all four families") {
    val ref = PerValueReference
    // Every candidate of the mixed registry as an SDC, confidences spread so
    // the max over triggering SDCs is exercised.
    val sdcs = CandidateGen.enumerate(ref.mixedRegistry).flatMap(_.candidates)
      .map(c => c.toSdc(0.5 + (c.idx % 50) / 100.0))
    val big = new SdcModel(sdcs, ref.mixedRegistry)
    val cols = ref.corpus.map(_.values) ++
      SynCorpus.generate(ref.corpus, 60, 7L).map(sc => sc.baseValues :+ sc.errValue) ++
      Seq(Seq.empty, Seq(null, "", "  "), repro.domains.Vocab.months :+ "febuary",
        Seq("München", "東京", "JANUARY", "january"))
    cols.foreach(vs => assert(big.predictColumn(vs) == ref.predictColumn(sdcs, ref.mixedRegistry, vs), vs))
    assert(cols.count(vs => big.predictColumn(vs).nonEmpty) > 10)
  }

  test("an uncommon-but-valid value is not flagged (Fig 3 guard)") {
    // "shakopee"-style: model covers cities via embedding? Our hand model has
    // no city SDC, so the column is simply not covered — no FPs.
    val preds = model.predictColumn(Seq("mankato", "st peter", "seattle", "shakopee", "phoenix"))
    assert(preds.isEmpty)
  }
}
