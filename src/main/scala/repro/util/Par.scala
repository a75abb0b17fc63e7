package repro.util

import java.util.stream.IntStream

object Par {

  /** `f(xs(i))` for every `i` in `0 until xs.size`, on a Java parallel
    * stream (the common pool, or the `ForkJoinPool` the caller runs in),
    * concatenated in index order: the result does not depend on scheduling
    * or thread count. `f` must be safe to call from several threads at once.
    */
  def flatMapInOrder[A, B](xs: Seq[A])(f: A => IterableOnce[B]): IndexedSeq[B] = {
    val items = xs.toIndexedSeq
    val parts = new Array[IterableOnce[B]](items.size)
    IntStream.range(0, items.size).parallel().forEach(i => parts(i) = f(items(i)))
    parts.iterator.flatten.toIndexedSeq
  }
}
