package repro.experiments

import repro.baselines.ErrorDetector

/** The detectors of Table 4's baselines, read from `Experiments.methods`. */
object Baselines {

  /** The detector of the baseline named `name`. */
  def apply(name: String): ErrorDetector =
    Experiments.methods.collectFirst { case b: Experiments.Baseline if b.name == name => b.detector }
      .getOrElse(throw new IllegalArgumentException(s"no baseline named '$name'"))

  /** The detectors of one Table 4 group, in row order. */
  def group(g: String): Seq[ErrorDetector] =
    Experiments.methods.collect { case b: Experiments.Baseline if b.group == g => b.detector }
}
