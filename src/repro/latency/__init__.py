"""Link-latency models.

The propagation delay ``δ(u, v)`` between any two directly connected nodes is
a constant per pair (Section 2.1).  This subpackage provides the different
ways the evaluation derives those constants:

* :mod:`repro.latency.geo` — geography-derived latencies (iPlane-like region
  matrix plus per-link jitter), the paper's default.
* :mod:`repro.latency.metric_space` — latencies from a random embedding in the
  unit hypercube, the theoretical model of Section 3.
* :mod:`repro.latency.relay` — overlays a fast block-distribution network
  (bloXroute-like) on top of an existing latency model (Section 5.4).
* :mod:`repro.latency.factory` — the model a ``SimulationConfig`` asks for,
  shared by the simulator and the sweep scenarios.
"""
