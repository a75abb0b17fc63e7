package reprobench

import java.nio.file.{Files, Paths, StandardOpenOption}
import org.scalatest.funsuite.AnyFunSuite

/** Base for the per-table bench suites: prints the rendered table and
  * persists it under bench/results/ so EXPERIMENTS.md can diff paper vs
  * measured numbers. Only Table 3's suite mixes in a SparkSession.
  */
trait BenchBase extends AnyFunSuite {

  def emit(name: String, rendered: String): Unit = {
    println("\n" + rendered + "\n")
    // Forked bench JVMs run with cwd = bench/; anchor results there either way.
    val base = Paths.get(sys.props("user.dir"))
    val dir =
      if (base.getFileName != null && base.getFileName.toString == "bench") base.resolve("results")
      else base.resolve("bench").resolve("results")
    Files.createDirectories(dir)
    Files.write(dir.resolve(s"$name.txt"), (rendered + "\n").getBytes("UTF-8"),
      StandardOpenOption.CREATE, StandardOpenOption.TRUNCATE_EXISTING)
  }
}
