package repro.perfbench

import org.apache.spark.sql.SparkSession

/** Benchmark entry point:
  *
  *   Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  *        [--commit <git commit>] [--source <digest of the built sources>]
  *
  * Prints run metadata and notes, then as its last stdout line one JSON
  * object with `correct`, `attempted`, `failed` and `metrics` (the
  * end-to-end metrics with `--trace 0`, the per-layer ones with
  * `--trace 1`). Exits 2 on bad arguments.
  */
object Main {

  val Workloads: Seq[String] = FastFrameBench.modes.map(_.name)

  private def usage(msg: String): Nothing = {
    Console.err.println(s"error: $msg")
    Console.err.println(
      s"usage: Main --workload <${Workloads.mkString("|")}> --seed <n> --seconds <s> --trace <0|1>")
    sys.exit(2)
  }

  def main(args: Array[String]): Unit = {
    if (args.length % 2 != 0) usage("arguments come in --key value pairs")
    val opts = args.grouped(2).map(a => a(0) -> a(1)).toMap
    def need(k: String) = opts.getOrElse(k, usage(s"missing $k"))
    val workload = need("--workload")
    if (!Workloads.contains(workload)) usage(s"unknown workload '$workload'")
    val seed    = need("--seed").toLongOption.getOrElse(usage("--seed must be an integer"))
    val seconds = need("--seconds").toDoubleOption.filter(_ > 0).getOrElse(usage("--seconds must be positive"))
    val trace = need("--trace") match {
      case "0" => false
      case "1" => true
      case t   => usage(s"--trace must be 0 or 1, got '$t'")
    }

    val t0    = System.nanoTime()
    val cores = math.min(4, Runtime.getRuntime.availableProcessors)
    val spark = SparkSession.builder()
      .master(s"local[$cores]")
      .appName("perfbench")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.catalogImplementation", "in-memory")
      .config("spark.sql.shuffle.partitions", (2 * cores).toString)
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    Console.err.println(f"perfbench: spark session up after ${(System.nanoTime() - t0) / 1e9}%.2f s")

    val outcome =
      try {
        FastFrameBench.run(spark, FastFrameBench.modes.find(_.name == workload).get, seed, seconds, trace)
      } finally spark.stop()

    val meta = Seq(
      "workload" -> Json.str(workload),
      "seed" -> seed.toString,
      "seconds" -> Json.num(seconds),
      "trace" -> trace.toString,
      "nproc" -> Runtime.getRuntime.availableProcessors.toString,
      "spark_master" -> Json.str(s"local[$cores]"),
      "max_heap_mb" -> Json.num(math.rint(Jvm.maxHeapMb)),
      "jvm" -> Json.str(s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}"),
      "spark" -> Json.str(spark.version),
      "scala" -> Json.str(scala.util.Properties.versionNumberString),
      "commit" -> Json.str(opts.getOrElse("--commit", "unknown")),
      "source" -> Json.str(opts.getOrElse("--source", "unknown"))) ++ outcome.scale
    println(Json.obj(Seq("run" -> Json.obj(meta))))
    outcome.notes.foreach(n => println(s"# $n"))
    outcome.metrics.foreach(m => println(f"# ${m.name}%-34s ${m.value}%16.6f ${m.unit}"))
    val metrics = outcome.metrics.map(m =>
      m.name -> Json.obj(Seq("value" -> Json.num(m.value), "unit" -> Json.str(m.unit))))
    println(Json.obj(Seq(
      "correct" -> outcome.correct.toString,
      "attempted" -> outcome.attempted.toString,
      "failed" -> outcome.failed.toString,
      "metrics" -> Json.obj(metrics))))
  }
}
