"""Experiment harness: the paper's tables and figures, run by name.

* :mod:`repro.analysis.experiments` — the sweep grid of every figure
  (3a, 3b, 4a, 4b, 4c, 5 and the scaling study) and ``run_experiment``,
  which runs any of them by name.
* :mod:`repro.analysis.figures` — turns experiment outputs into the series /
  rows the paper plots.
* :mod:`repro.analysis.reporting` — plain-text table rendering used by the
  CLI and the benchmark harness.
"""

from repro.analysis.experiments import (
    ExperimentResult,
    NetworkScalingResult,
    ProcessingDelaySweepResult,
    compare_protocols,
    run_experiment,
)
from repro.analysis.figures import (
    delay_curve_series,
    figure5_rows,
    improvement_table,
)
from repro.analysis.incremental import (
    IncrementalDeploymentResult,
    MixedDeploymentProtocol,
    run_incremental_deployment,
)
from repro.analysis.reporting import format_table, render_experiment_report

__all__ = [
    "ExperimentResult",
    "IncrementalDeploymentResult",
    "MixedDeploymentProtocol",
    "NetworkScalingResult",
    "ProcessingDelaySweepResult",
    "compare_protocols",
    "run_incremental_deployment",
    "delay_curve_series",
    "figure5_rows",
    "format_table",
    "improvement_table",
    "render_experiment_report",
    "run_experiment",
]
