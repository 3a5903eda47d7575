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
