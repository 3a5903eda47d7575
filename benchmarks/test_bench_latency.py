"""Benchmark of the latency backends and the scalable delay evaluation.

Measures, per network size, the cost of standing up a
:class:`GeographicLatencyModel` on each memory backend (build wall-clock and
peak traced allocation), a round-sized ``pairwise`` gather, and the delay
evaluation wall-clock (exact chunked vs hash-power-weighted sampling).  One
``BENCH-JSON`` line per cell so CI logs are scrapeable.

The ``PERIGEE_BENCH_LARGE=1`` test is the memory-wall acceptance check: at
N=20000 the sparse backend must stand up the model, run a full
Perigee-Subset round *and* a sampled delay evaluation in under one tenth of
the memory the dense backend needs for its matrix alone (``8 N^2`` bytes =
3.2 GB) — that is the bound the CI job enforces with a hard address-space
cap.

Knobs:

* ``PERIGEE_BENCH_LATENCY_NODES``  (default "1000,5000") — sizes measured
* ``PERIGEE_BENCH_LARGE``          (default off) — also run the N=20000
  sparse smoke + memory-wall check
* ``PERIGEE_BENCH_DENSE_20K``      (default off) — additionally *measure*
  the dense backend at N=20000 (needs ~7 GB RAM) instead of comparing
  against its analytic floor
"""

from __future__ import annotations

import os
import resource
import time
import tracemalloc

import numpy as np
import pytest

from repro.config import default_config
from repro.core.network import P2PNetwork
from repro.core.propagation import PropagationEngine
from repro.core.simulator import Simulator
from repro.datasets.bitnodes import generate_population
from repro.latency.geo import GeographicLatencyModel
from repro.metrics.evaluator import DelayEvaluator
from repro.protocols.registry import make_protocol

from benchmarks.conftest import emit_bench_json, print_banner

SIZES = tuple(
    int(size)
    for size in os.environ.get(
        "PERIGEE_BENCH_LATENCY_NODES", "1000,5000"
    ).split(",")
    if size.strip()
)
LARGE = os.environ.get("PERIGEE_BENCH_LARGE", "") == "1"
DENSE_20K = os.environ.get("PERIGEE_BENCH_DENSE_20K", "") == "1"

WALL_N = 20_000
#: The dense backend cannot take less memory than its stored matrix.
DENSE_FLOOR_BYTES_20K = 8 * WALL_N * WALL_N
#: Traced peak the sparse N=20000 round + sampled evaluation must stay under.
SPARSE_PEAK_BOUND_MB_20K = 160


def _mb(num_bytes: float) -> float:
    return num_bytes / (1024.0 * 1024.0)


def _rss_mb() -> float:
    # ru_maxrss is KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced(fn):
    """(result, wall_seconds, traced_peak_bytes) of ``fn()``."""
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def _random_network(num_nodes: int, rng: np.random.Generator) -> P2PNetwork:
    network = P2PNetwork(num_nodes=num_nodes, out_degree=8, max_incoming=20)
    for node in range(num_nodes):
        network.fill_random_outgoing(node, rng)
    return network


@pytest.mark.parametrize("num_nodes", SIZES)
def test_bench_latency_backends(num_nodes):
    """Dense vs sparse: build cost, gather cost, evaluation cost."""
    print_banner(f"Latency backends + delay evaluation, N={num_nodes}")
    config = default_config(num_nodes=num_nodes, seed=0)
    population = generate_population(config, np.random.default_rng(0))
    measure_dense = num_nodes <= 10_000 or DENSE_20K

    models = {}
    for memory in ("dense", "sparse") if measure_dense else ("sparse",):
        model, build_s, peak = _traced(
            lambda memory=memory: GeographicLatencyModel(
                population.nodes, np.random.default_rng(0), memory=memory
            )
        )
        models[memory] = model
        # A round touches ~8N directed edges once per graph rebuild.
        rng = np.random.default_rng(1)
        u = rng.integers(0, num_nodes, size=8 * num_nodes)
        v = rng.integers(0, num_nodes, size=8 * num_nodes)
        start = time.perf_counter()
        model.pairwise(u, v)
        gather_ms = (time.perf_counter() - start) * 1000.0
        record = {
            "bench": "latency-backend",
            "num_nodes": num_nodes,
            "memory": memory,
            "build_ms": round(build_s * 1000.0, 2),
            "build_peak_mb": round(_mb(peak), 2),
            "gather_8n_ms": round(gather_ms, 3),
            "rss_mb": round(_rss_mb(), 1),
        }
        emit_bench_json(record)

    model = models["sparse"]
    engine = PropagationEngine(model, population.validation_delays)
    network = _random_network(num_nodes, np.random.default_rng(2))
    evaluations = {"sampled": DelayEvaluator(mode="sampled", sample_size=256)}
    if num_nodes <= 2000:
        evaluations["exact"] = DelayEvaluator(mode="exact", chunk_size=256)
    for mode, evaluator in evaluations.items():
        evaluation, eval_s, peak = _traced(
            lambda evaluator=evaluator: evaluator.evaluate(
                engine, network, population.hash_power, target_fractions=(0.9,)
            )
        )
        record = {
            "bench": "delay-evaluation",
            "num_nodes": num_nodes,
            "mode": mode,
            "num_sources": evaluation.num_sources,
            "eval_ms": round(eval_s * 1000.0, 2),
            "eval_peak_mb": round(_mb(peak), 2),
            "standard_error_ms": (
                None
                if evaluation.standard_error_ms[0] is None
                else round(evaluation.standard_error_ms[0], 3)
            ),
        }
        emit_bench_json(record)
        assert np.isfinite(evaluation.reach(0.9)).mean() > 0.95


@pytest.mark.skipif(
    not LARGE, reason="N=20000 smoke runs only with PERIGEE_BENCH_LARGE=1"
)
def test_bench_memory_wall_20k():
    """Sparse backend at N=20000: build + one round + sampled evaluation.

    Asserts the >=10x peak-memory reduction over the dense backend — against
    the dense backend's analytic floor (its stored ``8 N^2``-byte matrix) by
    default, or against a measured dense build with
    ``PERIGEE_BENCH_DENSE_20K=1`` — and an absolute traced peak of at most
    ``SPARSE_PEAK_BOUND_MB_20K``.
    """
    print_banner("Memory wall: N=20000 sparse backend end-to-end")
    config = default_config(
        num_nodes=WALL_N,
        rounds=1,
        blocks_per_round=20,
        seed=0,
        latency_model="geographic-sparse",
    )
    evaluator = DelayEvaluator(mode="sampled", sample_size=256, chunk_size=128)

    def stand_up_and_run():
        simulator = Simulator(
            config, make_protocol("perigee-subset"), delay_evaluator=evaluator
        )
        assert simulator.latency_model.memory == "sparse"
        round_start = time.perf_counter()
        simulator.run_round()
        round_s = time.perf_counter() - round_start
        eval_start = time.perf_counter()
        evaluation = evaluator.evaluate(
            simulator.engine,
            simulator.network,
            simulator.population.hash_power,
            target_fractions=(config.hash_power_target,),
        )
        return simulator, round_s, time.perf_counter() - eval_start, evaluation

    (_, round_s, eval_s, evaluation), total_s, sparse_peak = _traced(
        stand_up_and_run
    )
    assert evaluation.sampled and evaluation.num_sources == 256

    dense_basis = "floor"
    dense_peak = float(DENSE_FLOOR_BYTES_20K)
    if DENSE_20K:
        population = generate_population(config, np.random.default_rng(0))
        _, _, dense_peak = _traced(
            lambda: GeographicLatencyModel(
                population.nodes, np.random.default_rng(0)
            )
        )
        dense_basis = "measured"
    reduction = dense_peak / sparse_peak
    record = {
        "bench": "memory-wall",
        "num_nodes": WALL_N,
        "blocks_per_round": 20,
        "total_s": round(total_s, 2),
        "round_s": round(round_s, 2),
        "sampled_eval_s": round(eval_s, 2),
        "sparse_peak_mb": round(_mb(sparse_peak), 1),
        "dense_peak_mb": round(_mb(dense_peak), 1),
        "dense_basis": dense_basis,
        "memory_reduction": round(reduction, 1),
        "rss_mb": round(_rss_mb(), 1),
    }
    emit_bench_json(record)
    assert reduction >= 10.0, (
        f"sparse peak {_mb(sparse_peak):.0f} MB is less than 10x below the "
        f"dense backend's {_mb(dense_peak):.0f} MB at N={WALL_N}"
    )
    # Perf smoke: the round's observation build allocates its (2E, B)
    # timestamp matrix once and the sampled evaluation sorts one copy of
    # its arrival rows, so the traced peak stays well under this bound.
    assert _mb(sparse_peak) <= SPARSE_PEAK_BOUND_MB_20K, (
        f"sparse peak {_mb(sparse_peak):.1f} MB exceeds "
        f"{SPARSE_PEAK_BOUND_MB_20K} MB at N={WALL_N}"
    )
