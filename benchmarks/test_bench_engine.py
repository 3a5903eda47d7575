"""Micro-benchmarks of the simulation substrates.

Not a paper figure: these time the propagation engine and one full
Perigee round, so regressions in the simulator itself (as opposed to the
algorithms under study) are visible.  pytest-benchmark's statistics are the
output here.

The incremental-engine ladder records what the patched CSR weight graph
buys: starting from a converging Perigee-Subset topology, it times
``propagate`` + sampled delay evaluation per round with the weight graph
rebuilt from scratch vs patched from the rewire delta, across a churn
ladder (rewired edges per round), and emits one ``BENCH-JSON
engine-incremental`` record per cell.  It asserts only that the patched arm
really patches; the speedup is recorded, not gated.

Knobs:

* ``PERIGEE_BENCH_ENGINE_NODES``  (default 2000; 20000 when LARGE)
* ``PERIGEE_BENCH_ENGINE_ROUNDS`` (default 3)    — timed rounds per cell
* ``PERIGEE_BENCH_LARGE``         (default off)  — N=20000
* ``PERIGEE_BENCH_XLARGE``        (default off)  — N=100000 single-round +
  sampled-eval smoke under a 3 GiB traced-allocation budget
"""

from __future__ import annotations

import os
import time
import tracemalloc

import numpy as np
import pytest

from repro.config import default_config
from repro.core.network import P2PNetwork
from repro.core.propagation import PropagationEngine
from repro.core.simulator import Simulator
from repro.metrics.evaluator import DelayEvaluator
from repro.protocols.registry import make_protocol

from benchmarks.conftest import emit_bench_json, print_banner

LARGE = os.environ.get("PERIGEE_BENCH_LARGE", "") == "1"
XLARGE = os.environ.get("PERIGEE_BENCH_XLARGE", "") == "1"
ENGINE_NODES = int(
    os.environ.get("PERIGEE_BENCH_ENGINE_NODES", "20000" if LARGE else "2000")
)
ENGINE_ROUNDS = int(os.environ.get("PERIGEE_BENCH_ENGINE_ROUNDS", "3"))

#: Undirected edges rewired per measured round: none, a handful, and a
#: heavy splice into the cached edge arrays.
CHURN_LADDER = (0, 16, 256)


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
    counter = {"round": 0}

    def one_round():
        outcome = simulator.run_round(counter["round"])
        counter["round"] += 1
        return outcome

    outcome = benchmark.pedantic(one_round, rounds=3, iterations=1)
    assert len(outcome.blocks) == 40


# --------------------------------------------------------------------------- #
# Incremental engine: rebuild-vs-patch round-cost ladder
# --------------------------------------------------------------------------- #
def _churn_schedule(
    network: P2PNetwork, rounds: int, count: int, seed: int
) -> list[list[tuple[int, int, int, int]]]:
    """Concrete per-round rewire ops ``(drop_u, drop_v, add_a, add_b)``.

    Recorded against a scratch copy so both engine arms replay the exact
    same topology trajectory.
    """
    scratch = network.copy()
    edge_list = scratch.edge_list()
    rng = np.random.default_rng(seed)
    schedule: list[list[tuple[int, int, int, int]]] = []
    for _ in range(rounds):
        ops: list[tuple[int, int, int, int]] = []
        for _ in range(count):
            index = int(rng.integers(0, len(edge_list)))
            u, v = edge_list[index]
            if not scratch.disconnect(u, v):
                scratch.disconnect(v, u)
            edge_list[index] = edge_list[-1]
            edge_list.pop()
            while True:
                a, b = (
                    int(x) for x in rng.integers(0, scratch.num_nodes, size=2)
                )
                if a != b and not scratch.has_edge(a, b) and scratch.connect(a, b):
                    break
            edge_list.append((min(a, b), max(a, b)))
            ops.append((u, v, a, b))
        schedule.append(ops)
    return schedule


def _replay_ops(network: P2PNetwork, ops: list[tuple[int, int, int, int]]) -> None:
    for u, v, a, b in ops:
        if not network.disconnect(u, v):
            network.disconnect(v, u)
        assert network.connect(a, b)


def _arm_round_cost(
    incremental: bool,
    base_network: P2PNetwork,
    simulator: Simulator,
    evaluator: DelayEvaluator,
    schedule: list[list[tuple[int, int, int, int]]],
    block_schedule: list[np.ndarray],
) -> tuple[float, dict[str, int | bool]]:
    """Mean timed propagate+evaluate round cost for one engine arm."""
    engine = PropagationEngine(
        simulator.latency_model,
        simulator.population.validation_delays,
        incremental=incremental,
    )
    network = base_network.copy()
    hash_power = simulator.population.hash_power
    # Untimed warm round: primes the graph cache, the steady state a
    # converging run lives in.
    engine.propagate(network, block_schedule[0])
    evaluator.evaluate(engine, network, hash_power, target_fractions=(0.9,))
    start = time.perf_counter()
    for ops, sources in zip(schedule, block_schedule):
        _replay_ops(network, ops)
        engine.propagate(network, sources)
        evaluator.evaluate(engine, network, hash_power, target_fractions=(0.9,))
    elapsed = time.perf_counter() - start
    return elapsed / len(schedule), engine.cache_stats()


def test_bench_incremental_engine_ladder():
    """Per-round cost, graph rebuilt vs patched, across the churn ladder."""
    print_banner(
        f"Incremental engine ladder, N={ENGINE_NODES}, "
        f"{ENGINE_ROUNDS} timed rounds per cell"
    )
    blocks = 10
    config = default_config(
        num_nodes=ENGINE_NODES,
        rounds=2,
        blocks_per_round=blocks,
        seed=0,
        latency_model="geographic-sparse",
    )
    sample_size = min(128, max(16, ENGINE_NODES // 16))
    evaluator = DelayEvaluator(
        mode="sampled", sample_size=sample_size, chunk_size=128, seed=7
    )
    simulator = Simulator(
        config, make_protocol("perigee-subset"), delay_evaluator=evaluator
    )
    # A couple of real Perigee rounds so the ladder starts from a
    # converging topology rather than the random bootstrap graph.
    for round_index in range(config.rounds):
        simulator.run_round(round_index)
    base_network = simulator.network

    rng = np.random.default_rng(99)
    for churn in CHURN_LADDER:
        schedule = _churn_schedule(
            base_network, ENGINE_ROUNDS, churn, seed=1000 + churn
        )
        block_schedule = [
            rng.integers(0, ENGINE_NODES, size=blocks)
            for _ in range(ENGINE_ROUNDS)
        ]
        costs: dict[bool, float] = {}
        stats: dict[bool, dict[str, int | bool]] = {}
        for incremental in (False, True):
            costs[incremental], stats[incremental] = _arm_round_cost(
                incremental,
                base_network,
                simulator,
                evaluator,
                schedule,
                block_schedule,
            )
        speedup = costs[False] / costs[True] if costs[True] > 0 else float("inf")
        on_stats = stats[True]
        emit_bench_json(
            {
                "bench": "engine-incremental",
                "num_nodes": ENGINE_NODES,
                "churn_edges": churn,
                "timed_rounds": ENGINE_ROUNDS,
                "blocks_per_round": blocks,
                "eval_sample_size": sample_size,
                "rebuild_round_s": round(costs[False], 4),
                "incremental_round_s": round(costs[True], 4),
                "speedup": round(speedup, 2),
                "graph_patches": int(on_stats["graph_patches"]),
            }
        )
        # The incremental arm must actually be exercising its cache.
        assert on_stats["graph_misses"] <= 1
        if churn > 0:
            assert on_stats["graph_patches"] >= ENGINE_ROUNDS


@pytest.mark.skipif(
    not XLARGE, reason="N=100000 smoke runs only with PERIGEE_BENCH_XLARGE=1"
)
def test_bench_engine_100k_smoke():
    """N=100000: one Perigee-Subset round + sampled evaluation, <3 GiB.

    The whole large-N stack in one pass — sparse latency backend,
    incremental engine, chunked sampled evaluation — with the traced
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
        incremental_engine=True,
    )
    build_s = time.perf_counter() - start
    round_start = time.perf_counter()
    simulator.run_round(0)
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
