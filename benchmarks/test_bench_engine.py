"""Micro-benchmarks of the simulation substrates.

Not a paper figure: these time the propagation engine and one full
Perigee round, so regressions in the simulator itself (as opposed to the
algorithms under study) are visible.  pytest-benchmark's statistics are the
output here.

Knob:

* ``PERIGEE_BENCH_XLARGE`` (default off) — N=100000 single-round +
  sampled-eval smoke under a 3 GiB traced-allocation budget
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.config import default_config
from repro.core.simulator import Simulator
from repro.metrics.evaluator import DelayEvaluator
from repro.protocols.registry import make_protocol

from benchmarks.conftest import emit_bench_json, print_banner

XLARGE = os.environ.get("PERIGEE_BENCH_XLARGE", "") == "1"


@pytest.fixture(scope="module")
def prepared_simulator():
    config = default_config(num_nodes=300, rounds=5, blocks_per_round=50, seed=0)
    return Simulator(config, make_protocol("perigee-subset"))


def test_bench_analytic_propagation(benchmark, prepared_simulator):
    simulator = prepared_simulator
    sources = np.arange(50) % simulator.config.num_nodes

    def propagate():
        return simulator.engine.propagate(simulator.network, sources)

    result = benchmark(propagate)
    assert result.num_blocks == 50


def test_bench_all_pairs_evaluation(benchmark, prepared_simulator):
    simulator = prepared_simulator

    def evaluate():
        return simulator.evaluate()

    reach = benchmark(evaluate)
    assert reach.shape == (simulator.config.num_nodes,)


def test_bench_forwarding_time_matrix(benchmark, prepared_simulator):
    """Bulk observation building: the round's (2E, B) forwarding-time matrix."""
    simulator = prepared_simulator
    sources = np.arange(50) % simulator.config.num_nodes
    result = simulator.engine.propagate(simulator.network, sources)

    def build_matrix():
        return simulator.engine.round_observations(simulator.network, result)

    observations = benchmark(build_matrix)
    assert observations.times.shape == (2 * simulator.network.num_edges(), 50)


def test_bench_full_perigee_round(benchmark):
    config = default_config(num_nodes=200, rounds=3, blocks_per_round=40, seed=1)
    simulator = Simulator(config, make_protocol("perigee-subset"))
    benchmark.pedantic(simulator.run_round, rounds=3, iterations=1)
    # Every timed round mined its 40 blocks.
    (next_block,) = simulator.mine_blocks(1)
    assert next_block.block_id == 40 * simulator.rounds_completed


@pytest.mark.skipif(
    not XLARGE, reason="N=100000 smoke runs only with PERIGEE_BENCH_XLARGE=1"
)
def test_bench_engine_100k_smoke():
    """N=100000: one Perigee-Subset round + sampled evaluation, <3 GiB.

    The whole large-N stack in one pass — sparse latency backend,
    memoised weight graph, chunked sampled evaluation — with the traced
    allocation peak asserted under the same 3 GiB budget the CI
    address-space cap enforces.
    """
    print_banner("Engine smoke: N=100000 single round + sampled evaluation")
    num_nodes = 100_000
    config = default_config(
        num_nodes=num_nodes,
        rounds=1,
        blocks_per_round=10,
        seed=0,
        latency_model="geographic-sparse",
    )
    evaluator = DelayEvaluator(mode="sampled", sample_size=64, chunk_size=32)
    tracemalloc.start()
    start = time.perf_counter()
    simulator = Simulator(
        config,
        make_protocol("perigee-subset"),
        delay_evaluator=evaluator,
    )
    build_s = time.perf_counter() - start
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
    eval_s = time.perf_counter() - eval_start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert evaluation.sampled and evaluation.num_sources == 64
    peak_mb = peak / (1024.0 * 1024.0)
    emit_bench_json(
        {
            "bench": "engine-100k-smoke",
            "num_nodes": num_nodes,
            "blocks_per_round": 10,
            "build_s": round(build_s, 2),
            "round_s": round(round_s, 2),
            "sampled_eval_s": round(eval_s, 2),
            "traced_peak_mb": round(peak_mb, 1),
        }
    )
    assert peak_mb < 3072.0, f"traced peak {peak_mb:.0f} MB exceeds 3 GiB"
