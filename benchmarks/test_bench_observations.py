"""Benchmark of the array-native observation & scoring pipeline.

Times one full observe+score+rewire round — ``collect_observations`` plus
``protocol.update`` — for all three Perigee variants at several network
sizes, against a faithful reimplementation of the original dict-of-dicts
pipeline (per-edge ``record()`` loops, per-value Equation-2 normalisation,
neighbor-by-neighbor scoring), kept here as a private copy of the dict
observation set it ran on.  One ``BENCH-JSON`` line is emitted per
(variant, size) cell so the speedup can be scraped from CI logs, and the
Perigee-Subset cell at N>=1000 must show the >=5x improvement the refactor
targets.

A second arm times the scoring phase of ``PerigeeBase.update`` — every
node scored in one batched pass, read from the ``perigee.score`` span —
against scoring the same round one node at a time through
``select_retained_block``, on the largest size after the UCB history has
filled; at N>=1000 the UCB cell must be >=2x faster.

A third arm times the percentile-anchor kernel all three scoring rules
share, :func:`~repro.core.observations.order_statistics` (one single-kth
partition plus a ``max``), against a two-kth ``np.partition`` at the shapes
one fig3a round scores (N=1000, B=60): UCB's stacked history slab, Vanilla's
stacked rows and one Subset greedy step.  It checks the anchors agree and
records the times, with no speed gate.

A fourth arm, ``round-phases``, records per-round milliseconds of
:meth:`~repro.core.observations.RoundObservations.first_arrivals` and of the
update's score and rewire phases (the ``perigee.score`` and
``perigee.rewire`` spans) for each variant at fig3a's round shape (N=1000,
B=60, first arrivals timed before the update reuses them), with no speed
gate.

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
from dataclasses import dataclass, field

import numpy as np
import pytest

from repro.config import default_config
from repro.core.observations import NEVER, order_statistics, percentile_score
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
@dataclass
class _LegacyObservationSet:
    """The dict-of-dicts observation set the seed pipeline scored from.

    ``_by_block`` maps ``block_id -> {neighbor: timestamp}``; only the
    operations the legacy round below performs are kept.
    """

    node_id: int
    _by_block: dict[int, dict[int, float]] = field(default_factory=dict)

    def record(self, block_id: int, neighbor: int, timestamp_ms: float) -> None:
        if block_id < 0:
            raise ValueError("block_id must be non-negative")
        if neighbor < 0:
            raise ValueError("neighbor must be a valid node id")
        self._by_block.setdefault(block_id, {})[neighbor] = float(timestamp_ms)

    @property
    def block_ids(self) -> list[int]:
        return sorted(self._by_block)

    def timestamps_for_block(self, block_id: int) -> dict[int, float]:
        return dict(self._by_block.get(block_id, {}))

    def normalized(self) -> "_LegacyObservationSet":
        """Equation 2: offsets from each block's first finite delivery."""
        normalized = _LegacyObservationSet(node_id=self.node_id)
        for block_id, deliveries in self._by_block.items():
            finite = [t for t in deliveries.values() if math.isfinite(t)]
            if not finite:
                continue
            first = min(finite)
            for neighbor, timestamp in deliveries.items():
                if math.isfinite(timestamp):
                    normalized.record(block_id, neighbor, timestamp - first)
                else:
                    normalized.record(block_id, neighbor, NEVER)
        return normalized

    def relative_timestamps(self, neighbor: int) -> list[float]:
        values: list[float] = []
        for deliveries in self._by_block.values():
            values.append(deliveries.get(neighbor, NEVER))
        return values

    def finite_relative_timestamps(self, neighbor: int) -> list[float]:
        return [t for t in self.relative_timestamps(neighbor) if math.isfinite(t)]


def _legacy_forwarding(engine, network, result):
    """The seed's per-edge view: ``(sender, receiver) -> per-block times``."""
    observations = engine.round_observations(network, result)
    senders, receivers = observations.senders, observations.receivers
    if senders.size == 0:
        return {}
    return dict(zip(zip(senders.tolist(), receivers.tolist()), observations.times))


def _legacy_collect(engine, network, result, blocks):
    forwarding = _legacy_forwarding(engine, network, result)
    observations = {
        node_id: _LegacyObservationSet(node_id=node_id)
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
        simulator.run_round()  # warm-up: topology has been rewired once
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
    budget = max(0, network.out_degree - protocol.exploration_budget(simulator.context))
    for node_id in range(network.num_nodes):
        outgoing = network.outgoing_neighbors(node_id)
        if outgoing:
            neighbors = np.fromiter(sorted(outgoing), dtype=np.int64, count=len(outgoing))
            protocol.select_retained_block(
                node_id,
                neighbors,
                observations.normalized_rows(node_id, neighbors),
                budget,
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
    simulator.run(fill)
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


#: ``(num_nodes, blocks_per_round)`` of the round-phases arm: fig3a's round.
ROUND_PHASES_SHAPE = (1000, 60)


@pytest.mark.parametrize("variant", VARIANTS)
def test_bench_round_phases(variant):
    """Per-round time of first arrivals and of the update's two phases."""
    num_nodes, blocks_per_round = ROUND_PHASES_SHAPE
    print_banner(
        f"Round phases, {variant}, N={num_nodes}, B={blocks_per_round}"
    )
    config = default_config(
        num_nodes=num_nodes, rounds=4, blocks_per_round=blocks_per_round, seed=0
    )
    simulator = Simulator(config, make_protocol(variant))
    simulator.run_round()
    rounds = 5
    first_s = score_s = rewire_s = 0.0
    for _ in range(rounds):
        blocks = simulator.mine_blocks()
        result = simulator.propagate_blocks(blocks)
        observations = simulator.collect_observations(blocks, result)
        start = time.perf_counter()
        observations.first_arrivals()
        first_s += time.perf_counter() - start
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            simulator.protocol.update(
                simulator.context, simulator.network, observations, simulator._rng
            )
        score_s += recorder.span_stats("perigee.score").total_s
        rewire_s += recorder.span_stats("perigee.rewire").total_s
    emit_bench_json(
        {
            "bench": "round-phases",
            "num_nodes": num_nodes,
            "blocks_per_round": blocks_per_round,
            "variant": variant,
            "rounds": rounds,
            "first_arrivals_ms": round(first_s / rounds * 1000.0, 2),
            "score_ms": round(score_s / rounds * 1000.0, 2),
            "rewire_ms": round(rewire_s / rounds * 1000.0, 2),
        }
    )
    assert score_s > 0.0 and rewire_s > 0.0


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
    simulator.run_round()
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


#: ``(variant, shape)`` of the blocks one fig3a round (N=1000, B=60) hands
#: to the percentile kernel: UCB's slab of 7,000 equally long histories of
#: 1,140 samples, Vanilla's 8,000 stacked rows and a Subset greedy step over
#: 1,000 nodes' ``(8, 60)`` blocks.
ORDER_STATISTIC_SHAPES = (
    ("perigee-ucb", (7000, 1140)),
    ("perigee-vanilla", (8000, 60)),
    ("perigee-subset", (1000, 8, 60)),
)


def _best_of(kernel, base, work, repeats=5):
    """Fastest of ``repeats`` timed calls, each on a fresh copy of ``base``."""
    best = math.inf
    for _ in range(repeats):
        np.copyto(work, base)
        start = time.perf_counter()
        kernel(work)
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize(
    "variant,shape",
    ORDER_STATISTIC_SHAPES,
    ids=[variant for variant, _ in ORDER_STATISTIC_SHAPES],
)
def test_bench_order_statistics(variant, shape):
    """Single-kth partition + max vs a two-kth partition, same anchors."""
    print_banner(f"Percentile anchors, {variant} shape {shape}")
    rng = np.random.default_rng(0)
    base = rng.exponential(scale=100.0, size=shape)
    if variant != "perigee-ucb":
        # Round blocks carry blocks a neighbor never delivered; UCB keeps
        # only finite samples.
        base[rng.uniform(size=shape) < 0.05] = NEVER
    rank = 0.9 * (shape[-1] - 1)
    lower, upper = math.floor(rank), math.ceil(rank)
    work = np.empty_like(base)

    def two_kth(values):
        values.partition((lower, upper), axis=-1)
        return values[..., lower].copy(), values[..., upper].copy()

    two_kth_s = _best_of(two_kth, base, work)
    expected = two_kth(base.copy())
    single_kth_s = _best_of(
        lambda values: order_statistics(values, lower, upper), base, work
    )
    low, high = order_statistics(base.copy(), lower, upper)
    assert np.array_equal(low, expected[0])
    assert np.array_equal(high, expected[1])
    emit_bench_json(
        {
            "bench": "order-statistics",
            "variant": variant,
            "shape": "x".join(str(size) for size in shape),
            "two_kth_ms": round(two_kth_s * 1000.0, 2),
            "single_kth_ms": round(single_kth_s * 1000.0, 2),
            "speedup": round(two_kth_s / single_kth_s, 2),
        }
    )
