package repro.experiments

import repro.baselines.ErrorDetector

/** The detectors of Table 4's baselines, read from `Experiments.methods`. */
object Baselines {

  /** The detector of the baseline named `name`. */
  def apply(name: String): ErrorDetector = Experiments.method(name) match {
    case b: Experiments.Baseline => b.detector
    case m                       => throw new IllegalArgumentException(s"${m.name} is not a baseline")
  }

  /** The detectors of one Table 4 group, in row order. */
  def group(g: String): Seq[ErrorDetector] =
    Experiments.methods.collect { case b: Experiments.Baseline if b.group == g => b.detector }
}
