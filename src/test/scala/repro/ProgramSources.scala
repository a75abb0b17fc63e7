package repro

import java.nio.file.{Files, Path, Paths}

import scala.jdk.CollectionConverters._

/** The program's source files (`src/main/scala` and `jobs/`), each relative
  * to the repository root with its lines, for the suites that scan them.
  * Read from the repository root, as sbt runs the tests.
  */
object ProgramSources {

  lazy val all: Seq[(String, Seq[String])] = read("src/main/scala", "jobs")

  /** The program and the code outside the tests that calls it: the paper
    * table suites (`bench/`) and the benchmark harness (`perfbench/src`).
    */
  lazy val withCallers: Seq[(String, Seq[String])] = all ++ read("bench/src", "perfbench/src")

  private def read(dirs: String*): Seq[(String, Seq[String])] =
    dirs.flatMap { dir =>
      val files = Files.walk(Paths.get(dir))
      try files.iterator.asScala.filter(_.toString.endsWith(".scala")).toList
      finally files.close()
    }.map((p: Path) => p.toString.replace('\\', '/') -> Files.readAllLines(p).asScala.toSeq)
}
