package repro.perfbench

import java.lang.management.ManagementFactory
import javax.management.{Notification, NotificationEmitter, NotificationListener}
import javax.management.openmbean.CompositeData
import com.sun.management.GarbageCollectionNotificationInfo
import scala.jdk.CollectionConverters._

/** Garbage-collection totals and peak live heap, read from the JVM's
  * management beans.
  */
object Jvm {

  private def gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  /** (collections, seconds spent collecting) since the JVM started. */
  def gcTotals(): (Long, Double) =
    (gcBeans.map(_.getCollectionCount.max(0L)).sum, gcBeans.map(_.getCollectionTime.max(0L)).sum / 1e3)

  def heapMaxMb: Long = Runtime.getRuntime.maxMemory >> 20

  private val lock = new Object
  private var peakAfterGc = 0L
  private var explicitCollections = 0L

  // The heap in use right after a collection is the live heap (plus, after a
  // young collection, old-generation garbage not yet collected).
  private val listener = new NotificationListener {
    def handleNotification(n: Notification, handback: Any): Unit =
      if (n.getType == GarbageCollectionNotificationInfo.GARBAGE_COLLECTION_NOTIFICATION) {
        val info = GarbageCollectionNotificationInfo.from(n.getUserData.asInstanceOf[CompositeData])
        val used = info.getGcInfo.getMemoryUsageAfterGc.values.asScala.map(_.getUsed).sum
        lock.synchronized {
          if (used > peakAfterGc) peakAfterGc = used
          if (info.getGcCause == "System.gc()") { explicitCollections += 1; lock.notifyAll() }
        }
      }
  }
  gcBeans.foreach { case e: NotificationEmitter => e.addNotificationListener(listener, null, null); case _ => }

  /** Peak live heap, in MB, while `body` runs. A full collection before
    * `body` clears garbage left by earlier work, and one after it (with the
    * result still referenced) closes the window.
    */
  def peakLiveMb[T](body: => T): (T, Double) = {
    fullCollection()
    lock.synchronized { peakAfterGc = 0L }
    val r = body
    fullCollection()
    val peak: Long = lock.synchronized(peakAfterGc)
    (r, peak / 1048576.0)
  }

  /** System.gc(), then wait for its notification, which arrives
    * asynchronously after the collection.
    */
  private def fullCollection(): Unit = {
    val before = lock.synchronized(explicitCollections)
    System.gc()
    lock.synchronized {
      val deadline = System.nanoTime() + 5000000000L
      while (explicitCollections == before && System.nanoTime() < deadline) lock.wait(100)
    }
  }
}
