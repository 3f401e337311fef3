package repro.flights

import org.apache.spark.sql.SparkSession

import repro.fastframe.Scramble

/** Generate, collect and scramble the synthetic FLIGHTS data in one step. */
object FlightsScramble {

  def apply(
      spark: SparkSession, sf: Double = 0.1, seed: Long = 7L,
      blockSize: Int = Scramble.DefaultBlockSize, shuffleSeed: Long = 17L): Scramble =
    Scramble.fromStore(FlightsData.toStore(FlightsData.df(spark, sf, seed)), blockSize, shuffleSeed)
}
