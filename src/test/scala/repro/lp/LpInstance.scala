package repro.lp

import java.io.{BufferedReader, InputStream, InputStreamReader, OutputStreamWriter, PrintWriter}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path}
import java.util.zip.{GZIPInputStream, GZIPOutputStream}

/** An LP in `Simplex.maximize`'s form: maximize c·x subject to A x <= b,
  * 0 <= x <= upper, with rows as sparse (index, coeff) lists.
  */
final case class LpInstance(c: Array[Double], rows: Array[Array[(Int, Double)]], b: Array[Double],
                            upper: Array[Double]) {
  def n: Int = c.length
  def m: Int = rows.length

  def solve(maxIter: Int = 200000): Simplex.Result = Simplex.maximize(c, rows, b, upper, maxIter)

  /** The same LP with each finite bound written as a row `x_j <= u_j`, after
    * A's rows, for a solver without bounds (`DenseSimplex`).
    */
  def boundRows: (Array[Array[(Int, Double)]], Array[Double]) = {
    val bounded = (0 until n).filter(j => upper(j) < Double.PositiveInfinity)
    (rows ++ bounded.map(j => Array((j, 1.0))), b ++ bounded.map(upper(_)))
  }

  /** The largest amount by which `x` breaks a row, scaled by max(1, |b_i|),
    * or a bound; 0 when it breaks none.
    */
  def worstViolation(x: Array[Double]): Double = {
    val byRow = rows.indices.map { i =>
      (rows(i).map { case (j, v) => v * x(j) }.sum - b(i)) / math.max(1.0, math.abs(b(i)))
    }
    val byBound = x.indices.map { j =>
      if (upper(j) == Double.PositiveInfinity) -x(j) else math.max(-x(j), (x(j) - upper(j)) / math.max(1.0, upper(j)))
    }
    (byRow ++ byBound).foldLeft(0.0)(math.max)
  }

  override def toString: String =
    s"LpInstance(c=${c.mkString(",")}; rows=${rows.map(_.mkString(" ")).mkString(" | ")}; " +
      s"b=${b.mkString(",")}; upper=${upper.mkString(",")})"
}

/** A line-based text format, gzipped. Doubles are written by
  * `Double.toString`, which reads back to the same bits; `Infinity` is an
  * absent bound.
  * {{{
  * lp <n> <m>
  * c <c_0> … <c_{n-1}>
  * u <u_0> … <u_{n-1}>
  * b <b_0> … <b_{m-1}>
  * r <j>:<a_ij> …        (one line per row, in order)
  * }}}
  */
object LpInstance {

  def write(lp: LpInstance, path: Path): Unit = {
    Files.createDirectories(path.getParent)
    val out = new PrintWriter(new OutputStreamWriter(new GZIPOutputStream(Files.newOutputStream(path)), UTF_8))
    try {
      out.println(s"lp ${lp.n} ${lp.m}")
      out.println(("c" +: lp.c.map(_.toString)).mkString(" "))
      out.println(("u" +: lp.upper.map(_.toString)).mkString(" "))
      out.println(("b" +: lp.b.map(_.toString)).mkString(" "))
      lp.rows.foreach(r => out.println(("r" +: r.map { case (j, v) => s"$j:$v" }).mkString(" ")))
    } finally out.close()
  }

  def read(in: InputStream): LpInstance = {
    val lines = new BufferedReader(new InputStreamReader(new GZIPInputStream(in), UTF_8))
    try {
      def fields(tag: String): Array[String] = {
        val f = lines.readLine().split(' ')
        require(f(0) == tag, s"expected a '$tag' line, got '${f(0)}'")
        f.tail
      }
      val Array(n, m) = fields("lp").map(_.toInt)
      val c = fields("c").map(_.toDouble)
      val upper = fields("u").map(_.toDouble)
      val b = fields("b").map(_.toDouble)
      val rows = Array.fill(m)(fields("r").map { e =>
        val k = e.indexOf(':')
        (e.substring(0, k).toInt, e.substring(k + 1).toDouble)
      })
      require(c.length == n && upper.length == n && b.length == m, "lp: vector lengths do not match its header")
      LpInstance(c, rows, b, upper)
    } finally lines.close()
  }

  /** Reads the test resource `lp/<name>.lp.gz`. */
  def resource(name: String): LpInstance = {
    val in = getClass.getResourceAsStream(s"/lp/$name.lp.gz")
    require(in != null, s"no test resource lp/$name.lp.gz")
    read(in)
  }
}
