package org.apache.spark

/** The listener bus delivers events asynchronously; waiting for it to
  * drain is package-private, hence this shim in Spark's package.
  */
object ListenerBusAccess {
  def waitUntilEmpty(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
