package repro.perfbench

import repro.core.AutoTest.AutoTestConfig
import repro.corpus.{BenchGen, CorpusGen, TableColumn}
import repro.util.Det

/** The benchmark's inputs, built directly with the generators and an
  * explicit configuration, so no environment variable or memo cache can
  * resize a workload or make a repeated operation free.
  *
  * The training corpus is pinned: it is the default relational profile for
  * every seed. At a scale a run can afford, which 50 centroid values the
  * corpus yields decides most of R_all: re-seeding a 600-column corpus
  * moved |R_all| between 754 and 2,360 over 20 seeds, so selection and
  * All-Constraints prediction cost would differ more between seeds than
  * any bound allows. A pinned corpus also lets every run check the trained
  * model against recorded outputs. The workload seed re-seeds the ST and RT
  * bench profiles, which are the prediction inputs; the default seed keeps
  * them as they are, which gives the benches of `bench/results`.
  */
object Inputs {

  val DefaultSeed: Long = 0L

  /** Training-corpus columns of every workload. The reference scale of
    * `bench/results` (3,000 columns, 400 embedding evaluators, |C_syn| =
    * 2,500) trains for about a minute, too long for a benchmark run.
    */
  val CorpusCols: Int = 500

  /** Columns per labelled bench; ST + RT give the 2,400 prediction inputs. */
  val BenchCols: Int = 1200

  val Config: AutoTestConfig = AutoTestConfig(
    nCentroids = 50, nPatterns = 40, nSyn = 1000,
    bSize = 500, bFpr = 0.1, delta = 1e-3, seed = 42)

  /** The reference scale of `bench/results/table5.txt`. */
  val ReferenceCols: Int = 3000
  val ReferenceConfig: AutoTestConfig = AutoTestConfig(
    nCentroids = 200, nPatterns = 40, nSyn = 2500,
    bSize = 500, bFpr = 0.1, delta = 1e-3, seed = 42)

  /** B_size values of the Table 5 selection sweep. */
  val Budgets: Seq[Int] = Seq(100, 200, 500, 1000)

  def corpus(nCols: Int = CorpusCols): IndexedSeq[TableColumn] =
    CorpusGen.generate(CorpusGen.relationalProfile(nCols)).toIndexedSeq

  /** ST-Bench followed by RT-Bench. */
  def bench(seed: Long, nCols: Int = BenchCols): IndexedSeq[TableColumn] =
    Seq(BenchGen.stProfile(nCols), BenchGen.rtProfile(nCols)).flatMap { p =>
      BenchGen.generate(if (seed == DefaultSeed) p else p.copy(seed = Det.combine(p.seed, seed)))
    }.toIndexedSeq
}
