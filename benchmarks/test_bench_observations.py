"""Benchmark of the array-native observation & scoring pipeline.

Times one full observe+score+rewire round — ``collect_observations`` plus
``protocol.update`` — for all three Perigee variants at several network
sizes, against a faithful reimplementation of the original dict-of-dicts
pipeline (per-edge ``record()`` loops, per-value Equation-2 normalisation,
neighbor-by-neighbor scoring).  One ``BENCH-JSON`` line is emitted per
(variant, size) cell so the speedup can be scraped from CI logs, and the
Perigee-Subset cell at N>=1000 must show the >=5x improvement the refactor
targets.

A second arm times the scoring phase of ``PerigeeBase.update`` — every
node scored in one batched pass, read from the ``perigee.score`` span —
against scoring the same round one node at a time through
``select_retained_block``, on the largest size after the UCB history has
filled; at N>=1000 the UCB cell must be >=2x faster.

Knobs:

* ``PERIGEE_BENCH_OBS_NODES``  (default "300,1000") — comma-separated sizes
* ``PERIGEE_BENCH_BLOCKS``     (default 50 here)    — blocks per round
* ``PERIGEE_BENCH_LARGE``      (default off)        — also run the N=5000
  single-round smoke test
"""

from __future__ import annotations

import copy
import math
import os
import time

import numpy as np
import pytest

from repro.config import default_config
from repro.core.observations import (
    NEVER,
    ObservationSet,
    normalized_observation_provider,
    percentile_score,
)
from repro.core.simulator import Simulator
from repro.protocols.registry import make_protocol
from repro.telemetry.recorder import MetricsRecorder, use_recorder

from benchmarks.conftest import emit_bench_json, print_banner

BLOCKS = int(os.environ.get("PERIGEE_BENCH_BLOCKS", "50"))
SIZES = tuple(
    int(size)
    for size in os.environ.get("PERIGEE_BENCH_OBS_NODES", "300,1000").split(",")
    if size.strip()
)
VARIANTS = ("perigee-vanilla", "perigee-ucb", "perigee-subset")


# --------------------------------------------------------------------------- #
# Faithful legacy (pre-refactor) pipeline, used as the baseline under test
# --------------------------------------------------------------------------- #
def _legacy_collect(engine, network, result, blocks):
    forwarding = engine.forwarding_time_matrix(network, result)
    observations = {
        node_id: ObservationSet(node_id=node_id)
        for node_id in range(network.num_nodes)
    }
    for (sender, receiver), times in forwarding.items():
        obs = observations[receiver]
        for block_index, block in enumerate(blocks):
            obs.record(block.block_id, sender, float(times[block_index]))
    return observations


def _legacy_vanilla(observations, outgoing, budget):
    scores = {}
    for neighbor in outgoing:
        values = []
        for deliveries in observations._by_block.values():
            values.append(deliveries.get(neighbor, NEVER))
        scores[neighbor] = percentile_score(values, 90.0)
    ranked = sorted(outgoing, key=lambda peer: (scores[peer], peer))
    return set(ranked[:budget])


def _legacy_subset(observations, outgoing, budget):
    remaining = set(outgoing)
    block_ids = observations.block_ids
    per_block = [
        observations.timestamps_for_block(block_id) for block_id in block_ids
    ]
    timestamps = {
        neighbor: np.array(
            [deliveries.get(neighbor, NEVER) for deliveries in per_block],
            dtype=float,
        )
        for neighbor in remaining
    }
    selected = []
    group_best = np.full(len(block_ids), NEVER, dtype=float)
    while remaining and len(selected) < budget:
        best_neighbor, best_score, best_transformed = None, math.inf, None
        for neighbor in sorted(remaining):
            transformed = np.minimum(timestamps[neighbor], group_best)
            score = percentile_score(transformed, 90.0)
            if score < best_score:
                best_neighbor, best_score = neighbor, score
                best_transformed = transformed
        if best_neighbor is None:
            best_neighbor = min(sorted(remaining))
            best_transformed = np.minimum(timestamps[best_neighbor], group_best)
        selected.append(best_neighbor)
        remaining.discard(best_neighbor)
        group_best = best_transformed
    return set(selected)


def _legacy_ucb(observations, outgoing, budget, history):
    intervals = {}
    for neighbor in outgoing:
        samples = observations.finite_relative_timestamps(neighbor)
        bucket = history.setdefault(neighbor, [])
        bucket.extend(float(value) for value in samples)
        finite = [t for t in bucket if math.isfinite(t)]
        if not finite:
            intervals[neighbor] = (NEVER, NEVER, NEVER)
            continue
        estimate = float(np.percentile(np.asarray(finite, dtype=float), 90.0))
        m = len(finite)
        if m >= 2:
            half = 60.0 * math.sqrt(math.log(m) / (2.0 * m))
        else:
            half = 60.0 * math.sqrt(math.log(2.0) / 2.0) * 4.0
        intervals[neighbor] = (estimate, estimate - half, estimate + half)
    retained = set(outgoing)
    worst, worst_lower, best_upper = None, -math.inf, math.inf
    for neighbor in sorted(intervals):
        _, lower, upper = intervals[neighbor]
        if lower > worst_lower:
            worst_lower, worst = lower, neighbor
        best_upper = min(best_upper, upper)
    if worst is not None and worst_lower > best_upper and len(retained) > 1:
        retained.discard(worst)
    if len(retained) > budget:
        ranked = sorted(retained, key=lambda peer: (intervals[peer][0], peer))
        retained = set(ranked[:budget])
    return retained


_LEGACY_SELECT = {
    "perigee-vanilla": _legacy_vanilla,
    "perigee-subset": _legacy_subset,
    "perigee-ucb": _legacy_ucb,
}


def _legacy_round(simulator, variant, blocks, result):
    """One observe+score+rewire round exactly as the seed pipeline ran it."""
    observations = _legacy_collect(
        simulator.engine, simulator.network, result, blocks
    )
    network = simulator.network.copy()
    rng = np.random.default_rng(12345)
    select = _LEGACY_SELECT[variant]
    history = {}
    exploration = simulator.config.exploration_peers if variant != "perigee-ucb" else 0
    budget = max(0, network.out_degree - exploration)
    for raw_id in rng.permutation(network.num_nodes):
        node_id = int(raw_id)
        outgoing = network.outgoing_neighbors(node_id)
        if not outgoing:
            network.fill_random_outgoing(node_id, rng)
            continue
        normalized = observations[node_id].normalized()
        if variant == "perigee-ucb":
            retained = select(normalized, set(outgoing), budget, history)
        else:
            retained = select(normalized, set(outgoing), budget)
        retained = {peer for peer in retained if peer in outgoing}
        network.replace_outgoing(
            node_id, retained, rng, num_random=network.out_degree - len(retained)
        )


def _measure(simulator, variant, rounds=3):
    """(array_ms, legacy_ms) per observe+update round, averaged."""
    array_s = legacy_s = 0.0
    for _ in range(rounds):
        blocks = simulator.mine_blocks()
        result = simulator.propagate_blocks(blocks)
        start = time.perf_counter()
        _legacy_round(simulator, variant, blocks, result)
        legacy_s += time.perf_counter() - start
        start = time.perf_counter()
        observations = simulator.collect_observations(blocks, result)
        simulator.protocol.update(
            simulator.context, simulator.network, observations, simulator._rng
        )
        array_s += time.perf_counter() - start
    return array_s / rounds * 1000.0, legacy_s / rounds * 1000.0


@pytest.mark.parametrize("num_nodes", SIZES)
def test_bench_observation_pipeline(num_nodes):
    """Array pipeline vs legacy dict pipeline, all three Perigee variants."""
    print_banner(
        f"Observation pipeline round time, N={num_nodes}, B={BLOCKS} "
        "(array vs legacy dict)"
    )
    for variant in VARIANTS:
        config = default_config(
            num_nodes=num_nodes, rounds=4, blocks_per_round=BLOCKS, seed=0
        )
        simulator = Simulator(config, make_protocol(variant))
        simulator.run_round(0)  # warm-up: topology has been rewired once
        array_ms, legacy_ms = _measure(simulator, variant)
        speedup = legacy_ms / array_ms if array_ms > 0 else float("inf")
        record = {
            "bench": "observations",
            "num_nodes": num_nodes,
            "blocks_per_round": BLOCKS,
            "variant": variant,
            "array_round_ms": round(array_ms, 2),
            "legacy_round_ms": round(legacy_ms, 2),
            "speedup": round(speedup, 2),
        }
        emit_bench_json(record)
        assert array_ms > 0.0
        if variant == "perigee-subset" and num_nodes >= 1000:
            # The refactor's acceptance bar: >=5x on the Perigee-Subset
            # round at N=1000, B=50.
            assert speedup >= 5.0, (
                f"subset observation round only {speedup:.1f}x faster than "
                f"the dict pipeline at N={num_nodes}"
            )


#: Rounds run before the batched-scoring arm so UCB histories are long.
HISTORY_FILL_ROUNDS = 8


def _score_per_node(protocol, simulator, observations):
    """Score every node of one round one at a time, without rewiring."""
    network = simulator.network
    provider = normalized_observation_provider(observations)
    budget = max(0, network.out_degree - protocol.exploration_budget(simulator.context))
    for node_id in range(network.num_nodes):
        outgoing = network.outgoing_neighbors(node_id)
        if outgoing:
            neighbors = np.fromiter(sorted(outgoing), dtype=np.int64, count=len(outgoing))
            protocol.select_retained_block(
                node_id, neighbors, provider(node_id, neighbors), budget, simulator._rng
            )


@pytest.mark.parametrize("variant", VARIANTS)
def test_bench_batched_scoring(variant):
    """Phase (a) of the round update vs a per-node select_retained_block loop."""
    num_nodes = max(SIZES)
    print_banner(
        f"Batched scoring phase vs per-node scoring, {variant}, N={num_nodes}, "
        f"B={BLOCKS}"
    )
    config = default_config(
        num_nodes=num_nodes, rounds=4, blocks_per_round=BLOCKS, seed=0
    )
    simulator = Simulator(config, make_protocol(variant))
    fill = HISTORY_FILL_ROUNDS if variant == "perigee-ucb" else 1
    for round_index in range(fill):
        simulator.run_round(round_index)
    batch_s = per_node_s = 0.0
    for _ in range(3):
        blocks = simulator.mine_blocks()
        result = simulator.propagate_blocks(blocks)
        observations = simulator.collect_observations(blocks, result)
        # The per-node arm folds into a copy of the UCB history, so both
        # arms score the same round from the same state.
        per_node = copy.deepcopy(simulator.protocol)
        start = time.perf_counter()
        _score_per_node(per_node, simulator, observations)
        per_node_s += time.perf_counter() - start
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            simulator.protocol.update(
                simulator.context, simulator.network, observations, simulator._rng
            )
        batch_s += recorder.span_stats("perigee.score").total_s
    speedup = per_node_s / batch_s if batch_s > 0 else float("inf")
    emit_bench_json(
        {
            "bench": "batched-scoring",
            "num_nodes": num_nodes,
            "blocks_per_round": BLOCKS,
            "variant": variant,
            "history_rounds": fill,
            "batch_ms": round(batch_s / 3 * 1000.0, 2),
            "per_node_ms": round(per_node_s / 3 * 1000.0, 2),
            "speedup": round(speedup, 2),
        }
    )
    assert batch_s > 0.0
    if variant == "perigee-ucb" and num_nodes >= 1000:
        assert speedup >= 2.0, (
            f"batched UCB scoring only {speedup:.1f}x faster than per-node "
            f"scoring at N={num_nodes}"
        )


@pytest.mark.skipif(
    os.environ.get("PERIGEE_BENCH_LARGE", "") != "1",
    reason="N=5000 smoke run only with PERIGEE_BENCH_LARGE=1",
)
def test_bench_large_network_smoke():
    """A 5000-node Perigee-Subset round completes in seconds, not minutes."""
    print_banner("Large-network smoke: N=5000 Perigee-Subset round")
    config = default_config(
        num_nodes=5000, rounds=2, blocks_per_round=BLOCKS, seed=0
    )
    simulator = Simulator(config, make_protocol("perigee-subset"))
    start = time.perf_counter()
    simulator.run_round(0)
    round_s = time.perf_counter() - start
    record = {
        "bench": "observations-large",
        "num_nodes": 5000,
        "blocks_per_round": BLOCKS,
        "round_seconds": round(round_s, 2),
    }
    emit_bench_json(record)
    degrees = [
        len(simulator.network.outgoing_neighbors(node))
        for node in range(0, 5000, 500)
    ]
    assert all(degree == config.out_degree for degree in degrees)
