"""Parallel experiment runtime with a persistent, resumable result store.

The paper's evaluation is an embarrassingly parallel grid — protocols x
repeats x parameter sweeps — and this package turns that grid into explicit,
self-contained units of work:

* :mod:`repro.runtime.tasks` — declarative :class:`SweepSpec`/:class:`Task`
  model with deterministic per-task seeds derived from
  ``numpy.random.SeedSequence`` spawn keys (no shared RNG stream across
  tasks, so serial and parallel execution are bit-for-bit identical);
* :mod:`repro.runtime.scenarios` — named, picklable environment builders
  (population + latency model) replacing ad-hoc closures, so tasks can cross
  process boundaries;
* :mod:`repro.runtime.executor` — :class:`SerialExecutor` and a
  process-pool :class:`ParallelExecutor` with per-task timing, progress
  callbacks and failure isolation;
* :mod:`repro.runtime.store` — append-only JSONL result store keyed by task
  content hash, giving free caching and resume of interrupted sweeps;
* :mod:`repro.runtime.aggregate` — reduction from stored task records back
  to the ``ExperimentResult``/``DelayCurve`` objects the analysis layer
  reports;
* :mod:`repro.runtime.cluster` — coordinator-free distributed execution:
  a durable work queue inside the store directory with lease/heartbeat
  semantics, ``perigee-sim worker`` daemons draining it from any number of
  processes or machines, and a :class:`ClusterExecutor` that plugs into
  :func:`execute_sweep` unchanged;
* :mod:`repro.runtime.faults` / :mod:`repro.runtime.retry` /
  :mod:`repro.runtime.atomics` — the hardened-IO layer: a deterministic,
  seedable fault-injection plane threaded through every durable-IO seam
  (null and free by default), a shared exponential-backoff retry helper
  with deterministic jitter, and the single tmp+rename atomic-write
  primitive all durable writes route through;
* :mod:`repro.runtime.chaos` — the closed-loop chaos harness behind
  ``perigee-sim chaos``: drains a real sweep through an armed worker fleet
  and asserts byte-identity against a fault-free serial run.

Typical use, mirroring ``perigee-sim figure3a --workers 4 --store runs/``::

    from repro.analysis.experiments import run_experiment

    result = run_experiment("figure3a", num_nodes=300, workers=4, store="runs/")

or, one level down::

    from repro.runtime.aggregate import records_to_result
    from repro.runtime.executor import ParallelExecutor, execute_sweep
    from repro.runtime.store import ResultStore
    from repro.runtime.tasks import SweepSpec

    spec = SweepSpec(name="demo", config=config, protocols=("random", "ideal"))
    records = execute_sweep(
        spec, executor=ParallelExecutor(workers=4), store=ResultStore("runs/")
    )
    result = records_to_result(records)
"""
