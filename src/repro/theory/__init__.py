"""Empirical validation of the paper's theoretical results.

* :mod:`repro.theory.stretch` — path-stretch computations on embedded graphs.
* :mod:`repro.theory.random_graph` — Theorem 1: random connections over a
  random hypercube embedding give logarithmically suboptimal latencies.
* :mod:`repro.theory.geometric_graph` — Theorem 2: threshold geometric graphs
  give constant-stretch latencies; also produces the Figure 1 illustration.
"""
