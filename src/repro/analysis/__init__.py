"""Experiment harness: the paper's tables and figures, run by name.

* :mod:`repro.analysis.experiments` — the sweep grid of every figure
  (3a, 3b, 4a, 4b, 4c, 5 and the scaling study) and ``run_experiment``,
  which runs any of them by name.
* :mod:`repro.analysis.figures` — turns experiment outputs into the series /
  rows the paper plots.
* :mod:`repro.analysis.reporting` — plain-text table rendering used by the
  CLI and the benchmark harness.
"""
