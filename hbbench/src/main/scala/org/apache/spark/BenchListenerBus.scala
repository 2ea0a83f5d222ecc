package org.apache.spark

/** Spark delivers listener events asynchronously; the benchmark reads its
  * listener only after every event posted so far has been delivered.
  * `listenerBus` is private to Spark, hence this object's package.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)
}
