package repro.lp

import java.nio.file.{Files, Paths}
import java.util.Locale

/** Times `Simplex.maximize` alone on every LP in `src/test/resources/lp`:
  * per LP, its size, iterations and objective, and the median wall-clock of
  * its timed solves (at least `MinSolves`, and at least `MinSeconds` of
  * them, after a full collection). Every LP is first solved, untimed, for
  * `WarmSeconds` in all, so the JIT has compiled the solver before any LP is
  * timed; all in one JVM.
  *
  * Run from the repository root with `sbt "Test/runMain repro.lp.LpTiming"`.
  */
object LpTiming {

  private val WarmSeconds = 10.0
  private val MinSolves = 15
  private val MinSeconds = 2.0

  def main(args: Array[String]): Unit = {
    val dir = Paths.get("src", "test", "resources", "lp")
    val files = dir.toFile.list().filter(_.endsWith(".lp.gz")).sorted
    val lps = files.map { file =>
      val in = Files.newInputStream(dir.resolve(file))
      file.stripSuffix(".lp.gz") -> (try LpInstance.read(in) finally in.close())
    }
    val t0 = System.nanoTime()
    while (System.nanoTime() - t0 < WarmSeconds * 1e9) lps.foreach(_._2.solve())
    lps.foreach { case (name, lp) =>
      System.gc()
      val ms = scala.collection.mutable.ArrayBuffer.empty[Double]
      val start = System.nanoTime()
      while (ms.size < MinSolves || System.nanoTime() - start < MinSeconds * 1e9) {
        val t0 = System.nanoTime()
        lp.solve()
        ms += (System.nanoTime() - t0) / 1e6
      }
      val sorted = ms.sorted
      val r = lp.solve()
      println("%-24s n=%5d m=%5d iterations=%6d objective=%s median_ms=%.3f (%d solves, quartiles %.3f-%.3f)".formatLocal(
        Locale.ROOT, name, lp.n, lp.m, r.iterations, r.objective.toString,
        sorted(sorted.size / 2), sorted.size, sorted(sorted.size / 4), sorted(sorted.size * 3 / 4)))
    }
  }
}
