"""Benchmarks of the parallel experiment runtime (repro.runtime).

Two claims are measured here:

* a ``figure3a``-shaped sweep executed with ``ParallelExecutor(workers=4)``
  is at least 2x faster wall-clock than ``SerialExecutor`` (requires >= 4
  CPU cores; skipped on smaller machines where the speedup cannot
  physically materialise), and the aggregated curves are byte-identical;
* serving a sweep from a populated result store is orders of magnitude
  faster than recomputing it (the resume/caching path).

The sweep size follows the shared ``PERIGEE_BENCH_*`` environment knobs
(see ``conftest.py``), with the node count defaulting to the acceptance
size of 300.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.experiments import FIGURE3_PROTOCOLS
from repro.config import default_config
from repro.runtime.aggregate import records_to_result
from repro.runtime.executor import ParallelExecutor, SerialExecutor, execute_sweep
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec

from benchmarks.conftest import print_banner

WORKERS = 4


def _figure3a_spec(scale, num_nodes=None, rounds=None) -> SweepSpec:
    config = default_config(
        num_nodes=num_nodes if num_nodes is not None else scale.num_nodes,
        rounds=rounds if rounds is not None else scale.rounds,
        seed=scale.seed,
        blocks_per_round=scale.blocks_per_round,
        hash_power_distribution="uniform",
    )
    return SweepSpec(
        name="bench-figure3a",
        config=config,
        protocols=FIGURE3_PROTOCOLS,
        repeats=scale.repeats,
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < WORKERS,
    reason=f"parallel speedup needs >= {WORKERS} CPU cores",
)
def test_bench_parallel_speedup(scale):
    """ParallelExecutor(4) >= 2x faster than serial, byte-identical output."""
    spec = _figure3a_spec(scale)
    print_banner(
        f"runtime speedup: figure3a sweep, n={spec.config.num_nodes}, "
        f"{spec.num_tasks} tasks, {WORKERS} workers"
    )

    start = time.perf_counter()
    serial_records = execute_sweep(spec, executor=SerialExecutor())
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    parallel_records = execute_sweep(
        spec, executor=ParallelExecutor(workers=WORKERS)
    )
    parallel_s = time.perf_counter() - start

    speedup = serial_s / parallel_s
    print(
        f"serial {serial_s:.1f}s  parallel({WORKERS}) {parallel_s:.1f}s  "
        f"speedup {speedup:.2f}x"
    )

    serial_result = records_to_result(serial_records)
    parallel_result = records_to_result(parallel_records)
    for name in serial_result.curves:
        assert serial_result.curves[name].sorted_delays_ms.tobytes() == (
            parallel_result.curves[name].sorted_delays_ms.tobytes()
        )
    assert speedup >= 2.0, f"expected >= 2x speedup, measured {speedup:.2f}x"


def test_bench_store_cache_hit(tmp_path, scale):
    """A warm result store serves a full sweep without recomputation."""
    spec = _figure3a_spec(
        scale,
        num_nodes=min(scale.num_nodes, 100),
        rounds=min(scale.rounds, 5),
    )
    store = ResultStore(tmp_path / "runs")
    print_banner(
        f"runtime store: figure3a sweep, n={spec.config.num_nodes}, "
        f"{spec.num_tasks} tasks"
    )

    start = time.perf_counter()
    execute_sweep(spec, store=store)
    cold_s = time.perf_counter() - start

    start = time.perf_counter()
    cached_records = execute_sweep(spec, store=store)
    warm_s = time.perf_counter() - start

    print(f"cold {cold_s:.2f}s  warm {warm_s:.3f}s")
    assert all(record.cached for record in cached_records)
    assert warm_s < cold_s
