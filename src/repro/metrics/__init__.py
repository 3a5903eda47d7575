"""Performance metrics and topology diagnostics.

* :mod:`repro.metrics.delay` — the paper's primary metric (Section 2.2): the
  time for a block mined by each node to reach a target fraction of the
  network's hash power, plus summary statistics and baseline comparisons.
* :mod:`repro.metrics.topology` — structural diagnostics of the learned
  overlay (edge-latency histograms for Figure 5, degree statistics,
  clustering by region).
* :mod:`repro.metrics.convergence` — per-round trajectories used to study how
  quickly adaptive protocols converge.
* :mod:`repro.metrics.evaluator` — the scalable front-end for the delay
  metric: exact chunked multi-source Dijkstra at paper scale, hash-power-
  weighted sampled sources (with reported standard error) at large N.
"""

from repro.metrics.convergence import ConvergenceReport, convergence_report
from repro.metrics.delay import (
    DelayCurve,
    delay_curve,
    hash_power_reach_times,
    improvement_over_baseline,
    reach_time_for_source,
    reach_times_for_sources,
)
from repro.metrics.evaluator import (
    DEFAULT_EVALUATOR,
    DelayEvaluation,
    DelayEvaluator,
)
from repro.metrics.topology import (
    EdgeLatencyHistogram,
    edge_latency_histogram,
    edge_latency_values,
    intra_continental_fraction,
    topology_summary,
)

__all__ = [
    "ConvergenceReport",
    "DEFAULT_EVALUATOR",
    "DelayCurve",
    "DelayEvaluation",
    "DelayEvaluator",
    "EdgeLatencyHistogram",
    "convergence_report",
    "delay_curve",
    "edge_latency_histogram",
    "edge_latency_values",
    "hash_power_reach_times",
    "improvement_over_baseline",
    "intra_continental_fraction",
    "reach_time_for_source",
    "reach_times_for_sources",
    "topology_summary",
]
