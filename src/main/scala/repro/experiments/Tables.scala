package repro.experiments

import java.util.Locale

import org.apache.spark.sql.SparkSession
import repro.core.{Prediction, SdcModel}
import repro.corpus.{CleaningDatasets, ColumnStore, TableColumn}
import repro.dists.DomainEval

/** Per-table experiment drivers (the reproduction index of DESIGN §4).
  * Each `runTableN` returns the formatted table plus structured results the
  * bench suites assert on; the jobs print the same output for spark-submit.
  */
object Tables {

  import Experiments._

  /** A scored table: (row key, bench, setting) -> (F1@P=0.8, PR-AUC), and
    * the rendered table. Tables 4, 6, 7 and 12 return one; Table 8 keeps its
    * rule counts next to it.
    */
  final case class Scored[K](scores: Map[(K, String, String), (Double, Double)], rendered: String)

  /** The (bench, setting) grid of Tables 4, 6 and 12, in column order;
    * Tables 7 and 8 score its real-error cells.
    */
  private val Grid: Seq[(String, String)] = for (b <- Seq("st", "rt"); (s, _) <- ErrorSettings) yield (b, s)
  private val GridHeader: Seq[String] = Grid.map { case (b, s) => s"$b $s" }
  private val RealGrid: Seq[(String, String)] = Grid.filter(_._2 == "real")

  /** A table row: its result key, its label cells and its predictions. */
  private final case class Row[K](key: K, labels: Seq[String],
                                  predict: Seq[TableColumn] => IndexedSeq[Prediction],
                                  realOnly: Boolean = false)

  /** A row scored with `model`, built when the row is first scored. */
  private def modelRow[K](key: K, labels: String*)(model: => SdcModel): Row[K] = {
    lazy val m = model
    Row(key, labels, m.predictions(_))
  }

  /** Scores each row on each `grid` cell (the real-error cells only for a
    * `realOnly` row), then renders the title and a table of the row labels
    * and one "F1, AUC" cell per grid cell, "-" where a row is not scored.
    */
  private def scoreGrid[K](title: String, header: Seq[String], grid: Seq[(String, String)],
                           rows: Seq[Row[K]]): Scored[K] = {
    val tag = title.takeWhile(_ != ':')
    val scores = (for {
      r <- rows
      (bench, setting) <- grid if !r.realOnly || setting == "real"
    } yield {
      val t0 = System.nanoTime()
      val p = score(bench, setting)(r.predict)
      Console.err.println("[%s] %-30s %s/%-6s (f1, auc) = %s [%.3f s]".formatLocal(Locale.ROOT,
        tag, r.labels.mkString(" "), bench, setting, fmtPair(p), (System.nanoTime() - t0) / 1e9))
      (r.key, bench, setting) -> p
    }).toMap
    val body = rows.map(r => r.labels ++ grid.map { case (b, s) => scores.get((r.key, b, s)).fold("-")(fmtPair) })
    Scored(scores, title + "\n" + table(header, body))
  }

  // ---------------------------------------------------------------- Table 3

  final case class Table3Result(rows: Map[String, ColumnStore.CorpusStats], rendered: String)

  def runTable3(spark: SparkSession): Table3Result = {
    val stats = CorpusNames.map { n =>
      n -> ColumnStore.stats(ColumnStore.toDf(spark, corpus(n)))
    }.toMap
    val rendered = table(
      Seq("Corpus", "total # cols", "mean # vals", "median # vals", "mean # dist vals", "median # dist vals"),
      CorpusNames.map { n =>
        val s = stats(n)
        Seq(n, s.nColumns.toString, fmt(s.meanVals, 2), fmt(s.medianVals, 0),
          fmt(s.meanDistinct, 2), fmt(s.medianDistinct, 0))
      })
    Table3Result(stats, "Table 3: training table corpora statistics\n" + rendered)
  }

  // ---------------------------------------------------------------- Table 4

  /** Keyed by (method, bench, setting). */
  def runTable4(): Scored[String] = {
    val rows = methods.map(m => Row(m.name, Seq(m.group, m.name), m.predictions(_), m.realOnly))
    scoreGrid(
      "Table 4: quality comparisons (F1@P=0.8, PR-AUC) on ST-Bench and RT-Bench",
      Seq("Group", "Method") ++ GridHeader, Grid, rows)
  }

  // ---------------------------------------------------------------- Table 5

  final case class Table5Row(bSize: String, stF1: Double, stAuc: Double,
                             rtF1: Double, rtAuc: Double, secPerCol: Double)
  final case class Table5Result(rows: Seq[Table5Row], rendered: String)

  def runTable5(): Table5Result = {
    val m = trained("relational-tables")
    val budgets = Seq(100, 200, 500, 1000)
    val variants: Seq[(String, SdcModel)] =
      budgets.map(b => b.toString -> new SdcModel(
        m.reselect(bSize = b, delta = Some(m.config.delta)).selected.map(_.sdc), m.registry)) :+
        (s"${AllConstraints.name} (${m.assessed.size})" -> m.allConstraintsModel)
    val quality = variants.map { case (_, model) =>
      (score("st", "real")(model.predictions), score("rt", "real")(model.predictions))
    }
    val latencies = latencyPerColumn(variants.map(_._2), stBench)
    val rows = variants.lazyZip(quality).lazyZip(latencies).map { case ((name, _), ((stF1, stAuc), (rtF1, rtAuc)), lat) =>
      Console.err.println("[table5] B_size=%-22s st=(%.2f,%.2f) rt=(%.2f,%.2f) %.6f s/col".formatLocal(Locale.ROOT,
        name, stF1, stAuc, rtF1, rtAuc, lat))
      Table5Row(name, stF1, stAuc, rtF1, rtAuc, lat)
    }
    val rendered = table(
      Seq("B_size", "ST F1@P=0.8", "ST PR-AUC", "RT F1@P=0.8", "RT PR-AUC", "µs/col"),
      rows.map(r => Seq(r.bSize, fmt(r.stF1, 2), fmt(r.stAuc, 2), fmt(r.rtF1, 2), fmt(r.rtAuc, 2),
        fmtSig(r.secPerCol * 1e6, 3))))
    Table5Result(rows,
      "Table 5: Fine-Select quality and latency vs constraint-count budget B_size\n" + rendered)
  }

  // ---------------------------------------------------------------- Table 6

  /** Fine-Select, keyed by (training corpus, bench, setting). */
  def runTable6(): Scored[String] = {
    val rows = CorpusNames.map(c => modelRow(c, c)(trained(c).fineModel))
    scoreGrid(
      "Table 6: Fine-Select sensitivity to the training corpus",
      Seq("Training corpus") ++ GridHeader, Grid, rows)
  }

  // ---------------------------------------------------------------- Table 7

  /** Keyed by (variant, bench, "real"). */
  def runTable7(): Scored[String] = {
    val m = trained("relational-tables")
    val variants: Seq[(String, SdcModel)] = Seq(
      FineSelect.name -> m.fineModel) ++
      Seq(DomainEval.Cta -> "no-CTA", DomainEval.Embedding -> "no-embedding",
        DomainEval.Pattern -> "no-pattern", DomainEval.Function -> "no-function")
        .map { case (family, label) =>
          val sel = m.selectSubset(a => m.registry.byId(a.sdc.evalId).family != family)
          label -> new SdcModel(sel.selected.map(_.sdc), m.registry)
        }
    scoreGrid(
      "Table 7: ablation — contribution of each column-type detection family (Fine-Select)",
      Seq("Variant", "ST-Bench", "RT-Bench"), RealGrid,
      variants.map { case (label, model) => modelRow(label, label)(model) })
  }

  // ---------------------------------------------------------------- Table 8

  /** Scores keyed by (variant, bench, "real"), and each variant's rule count. */
  final case class Table8Result(scored: Scored[String], ruleCounts: Map[String, Int])

  def runTable8(): Table8Result = {
    val m = trained("relational-tables")
    val base = m.config.assessConfig
    val variants: Seq[(String, SdcModel)] = Seq(
      AllConstraints.name -> m.allConstraintsModel,
      "no Wilson score interval" -> new SdcModel(
        m.reassess(base.copy(useWilson = false)).map(_.sdc), m.registry),
      "no Cohen's h" -> new SdcModel(
        m.reassess(base.copy(useCohensH = false)).map(_.sdc), m.registry),
    )
    val scored = scoreGrid(
      "Table 8: ablation — Wilson score interval and Cohen's h (All-Constraints)",
      Seq("Variant", "# rules", "ST-Bench", "RT-Bench"), RealGrid,
      variants.map { case (l, model) => modelRow(l, l, model.size.toString)(model) })
    Table8Result(scored, variants.map { case (l, model) => l -> model.size }.toMap)
  }

  // ------------------------------------------------------- Table 9 (+10/11)

  final case class Table9Dataset(
      dataset: String,
      nCols: Int,
      nCoveredByGt: Int,
      nCoveredBySdc: Int,
      columnPrecision: Option[Double],
      cellDetections: Int,
      cellStrictCorrect: Int,
      cellAdjustedCorrect: Int,
  )

  final case class Table9Result(
      perDataset: Seq[Table9Dataset],
      discoveredSdcs: Seq[String], // Table 10-style listing
      newErrorsFound: Seq[String], // Table 11-style listing
      rendered: String,
  )

  def runTable9(): Table9Result = {
    val model = trained("relational-tables").fineModel
    val listings10 = Seq.newBuilder[String]
    val listings11 = Seq.newBuilder[String]
    val perDataset = CleaningDatasets.datasetNames.map { ds =>
      val cols = CleaningDatasets.dataset(ds)
      var covered = 0
      var coveredCorrect = 0
      var det = 0; var strict = 0; var adjusted = 0
      cols.foreach { c =>
        val SdcModel.Explanation(covering, preds) = model.explainColumn(c.values)
        if (covering.nonEmpty) {
          covered += 1
          // column-level judgement: an applied SDC is correct when it flags
          // no valid value on this column (predictions ⊆ real errors)
          val fps = preds.keySet -- c.allErrors
          if (fps.isEmpty) coveredCorrect += 1
          val best = covering.maxBy(_.confidence)
          listings10 += "%-9s %-20s SDC(%s, dIn=%.2f, dOut=%.2f, m=%.2f, conf=%.2f)".formatLocal(Locale.ROOT,
            ds, c.column, best.evalId, best.dIn, best.dOut, best.m, best.confidence) +
            (if (c.coveredByExistingGt) "" : String else "  [no existing constraint]")
        }
        det += preds.size
        strict += preds.keySet.count(c.knownErrors.contains)
        adjusted += preds.keySet.count(c.allErrors.contains)
        val newlyFound = preds.keySet.intersect(c.missedErrors)
        newlyFound.foreach { v =>
          listings11 += "%-9s %-20s '%s' (error missed by existing ground truth)".formatLocal(Locale.ROOT,
            ds, c.column, v)
        }
      }
      Table9Dataset(ds, cols.size, cols.count(_.coveredByExistingGt), covered,
        if (covered == 0) None else Some(coveredCorrect.toDouble / covered),
        det, strict, adjusted)
    }
    val tot = perDataset
    val header = Seq("Metric", "9-dataset overall") ++ CleaningDatasets.datasetNames
    def row(name: String, f: Table9Dataset => String, overall: String) =
      Seq(name, overall) ++ tot.map(f)
    val sumDet = tot.map(_.cellDetections).sum
    val sumStrict = tot.map(_.cellStrictCorrect).sum
    val sumAdj = tot.map(_.cellAdjustedCorrect).sum
    def pct(x: Double) = fmt(x, 0) + "%"
    val rows = Seq(
      row("# total categorical cols", _.nCols.toString, tot.map(_.nCols).sum.toString),
      row("# cols covered by existing GT", _.nCoveredByGt.toString, tot.map(_.nCoveredByGt).sum.toString),
      row("Coverage: # cols with new SDCs", _.nCoveredBySdc.toString, tot.map(_.nCoveredBySdc).sum.toString),
      row("Precision: % new SDCs correct",
        d => d.columnPrecision.map(p => pct(p * 100)).getOrElse("-"),
        pct(100.0 * tot.flatMap(d => d.columnPrecision.map(_ * d.nCoveredBySdc)).sum / math.max(1, tot.map(_.nCoveredBySdc).sum))),
      row("True-positives: # detected errors", _.cellDetections.toString, sumDet.toString),
      row("Precision: % detections correct",
        d => if (d.cellDetections == 0) "-"
             else s"${pct(100.0 * d.cellStrictCorrect / d.cellDetections)} (${pct(100.0 * d.cellAdjustedCorrect / d.cellDetections)})",
        if (sumDet == 0) "-" else s"${pct(100.0 * sumStrict / sumDet)} (${pct(100.0 * sumAdj / sumDet)})"),
    )
    val t10 = listings10.result()
    val t11 = listings11.result()
    val rendered =
      "Table 9: SDCs applied to existing data-cleaning benchmarks\n" +
        table(header, rows) +
        "\n\nTable 10-style: SDCs automatically applied\n" + t10.mkString("\n") +
        "\n\nTable 11-style: new errors not in existing ground truth\n" +
        (if (t11.isEmpty) "(none)" else t11.mkString("\n"))
    Table9Result(perDataset, t10, t11, rendered)
  }

  // --------------------------------------------------------- Table 12 (App A)

  /** Keyed by ((training corpus, variant), bench, setting). */
  def runTable12(): Scored[(String, String)] = {
    val rows = for (c <- Seq("relational-tables", "spreadsheet-tables"); v <- Variants)
      yield modelRow((c, v.name), c, v.name)(v.model(trained(c)))
    scoreGrid(
      "Table 12 (Appendix A): algorithm performance by training corpus",
      Seq("Trained on", "Method") ++ GridHeader, Grid, rows)
  }
}
