"""Batched scoring phase: parity with the per-node scorers, and pinned records.

``PerigeeBase.update`` scores every updating node in one chunked pass before
the rewire loop (phase a), then rewires in ``rng.permutation`` order
(phase b).  This suite pins that split from four sides:

* each variant's ``select_retained_batch`` equals the per-node references
  (``percentile_scores`` + lexsort, ``greedy_subset_selection_block``, and
  a list-history UCB fold + ``confidence_intervals_stacked`` +
  ``ucb_eviction_candidate``) on random blocks with ``inf`` rows, ties,
  partially observed nodes, tiny budgets and zero-block rounds;
* ``RoundObservations.normalized_blocks`` equals ``normalized_rows`` per
  node, and the chunk size never changes a result;
* whole runs of every variant and wrapper reproduce digests recorded with
  the one-node-at-a-time update (edges after every round, flight-recorder
  rows and the final checkpoint), and a UCB checkpoint written when the
  history was a list of floats resumes bit-identically;
* the invariant phase (a) relies on — rewiring a node changes no other
  node's outgoing set — holds for ``replace_outgoing`` and
  ``fill_random_outgoing``.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.incremental import MixedDeploymentProtocol
from repro.config import default_config
from repro.core.network import P2PNetwork
from repro.core.observations import NEVER, RoundObservations, percentile_scores
from repro.core.simulator import Simulator
from repro.protocols.base import random_initial_topology
from repro.protocols.perigee import base as perigee_base
from repro.protocols.perigee.subset import PerigeeSubsetProtocol
from repro.protocols.perigee.ucb import PerigeeUCBProtocol
from repro.protocols.perigee.vanilla import PerigeeVanillaProtocol
from repro.protocols.scoring import (
    confidence_intervals_stacked,
    greedy_subset_selection_batch,
    greedy_subset_selection_block,
    ucb_eviction_candidate,
)
from repro.security.eclipse import _HeadStartPerigee
from repro.security.freeride import _FreeRidingAwarePerigee
from repro.telemetry.flight import FlightRecorder, use_flight_recorder
from repro.telemetry.recorder import MetricsRecorder, use_recorder

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------------- #
# Random scoring inputs
# --------------------------------------------------------------------------- #
def random_blocks(
    seed: int, num_nodes: int, max_blocks: int, inf_rate: float, pool: int = 60
):
    """Per-node ``(neighbors, times)`` with ties, ``inf`` entries and rows.

    Neighbor ids are drawn from ``range(pool)``; a small pool makes
    consecutive draws share neighbors, as connected peers do across rounds.
    """
    rng = np.random.default_rng(seed)
    neighbors, times = [], []
    for _ in range(num_nodes):
        k = int(rng.integers(1, 7))
        num_blocks = int(rng.integers(0, max_blocks + 1))
        ids = np.sort(rng.choice(pool, size=k, replace=False)).astype(np.int64)
        # Rounded delays produce ties, which exercise every tie-break.
        block = np.round(rng.exponential(20.0, size=(k, num_blocks)), 0)
        block[rng.random((k, num_blocks)) < inf_rate] = NEVER
        if k > 1 and rng.random() < 0.3:
            block[int(rng.integers(0, k))] = NEVER  # a silent neighbor
        neighbors.append(ids)
        times.append(block)
    return neighbors, times


def reference_vanilla(neighbors, times, budget, percentile):
    if budget <= 0:
        return set()
    scores = percentile_scores(times, percentile)
    ranked = np.lexsort((neighbors, scores))
    return {int(peer) for peer in neighbors[ranked[:budget]]}


class ListHistoryUCB:
    """The one-node UCB scorer with list histories, as it was written first."""

    def __init__(self, percentile, constant, limit):
        self.percentile = percentile
        self.constant = constant
        self.limit = limit
        self.history: dict[int, dict[int, list[float]]] = {}

    def select(self, node_id, neighbors, times, budget):
        if budget <= 0:
            return set()
        history = self.history.setdefault(node_id, {})
        finite = np.isfinite(times)
        for row, neighbor_id in enumerate(neighbors.tolist()):
            samples = times[row, finite[row]]
            if samples.size:
                bucket = history.setdefault(neighbor_id, [])
                bucket.extend(samples.tolist())
                if len(bucket) > self.limit:
                    del bucket[: len(bucket) - self.limit]
            else:
                history.setdefault(neighbor_id, [])
        interval_list = confidence_intervals_stacked(
            [history.get(int(neighbor), []) for neighbor in neighbors],
            percentile=self.percentile,
            exploration_constant=self.constant,
        )
        intervals = dict(zip((int(n) for n in neighbors), interval_list))
        evict = ucb_eviction_candidate(intervals)
        retained = {int(neighbor) for neighbor in neighbors}
        if evict is not None:
            retained.discard(evict)
        if len(retained) > budget:
            ranked = sorted(
                retained, key=lambda peer: (intervals[peer].estimate, peer)
            )
            retained = set(ranked[:budget])
        return retained


scoring_inputs = st.tuples(
    st.integers(0, 2**31 - 1),
    st.integers(1, 12),
    st.integers(0, 9),
    st.sampled_from([0.0, 0.15, 0.6, 1.0]),
    st.integers(-1, 8),
    st.sampled_from([50.0, 90.0, 100.0]),
)


class TestBatchParity:
    @common_settings
    @given(scoring_inputs)
    def test_vanilla_batch_matches_per_node_ranking(self, case):
        seed, num_nodes, max_blocks, inf_rate, budget, percentile = case
        neighbors, times = random_blocks(seed, num_nodes, max_blocks, inf_rate)
        protocol = PerigeeVanillaProtocol(percentile=percentile)
        batch = protocol.select_retained_batch(
            list(range(num_nodes)), neighbors, times, budget
        )
        assert batch == [
            reference_vanilla(ids, block, budget, percentile)
            for ids, block in zip(neighbors, times)
        ]

    @common_settings
    @given(scoring_inputs)
    def test_subset_batch_matches_greedy_block(self, case):
        seed, num_nodes, max_blocks, inf_rate, budget, percentile = case
        neighbors, times = random_blocks(seed, num_nodes, max_blocks, inf_rate)
        budget = max(budget, 0)
        picks = greedy_subset_selection_batch(neighbors, times, budget, percentile)
        assert picks == [
            greedy_subset_selection_block(ids, block, budget, percentile)
            for ids, block in zip(neighbors, times)
        ]
        protocol = PerigeeSubsetProtocol(percentile=percentile)
        assert protocol.select_retained_batch(
            list(range(num_nodes)), neighbors, times, budget
        ) == [set(selected) for selected in picks]

    def test_subset_all_infinite_fallback_uses_finite_means(self):
        # Every anchor is infinite (one delivered block out of four), so the
        # greedy falls back to the smallest finite mean, then to the lowest
        # id among neighbors with no finite sample at all.
        neighbors = [np.array([3, 8, 9, 12], dtype=np.int64)] * 2
        block = np.full((4, 4), NEVER)
        block[1, 0] = 5.0
        block[3, 2] = 2.0
        times = [block, block[::-1].copy()]
        picks = greedy_subset_selection_batch(neighbors, times, 3, 90.0)
        assert picks[0] == [12, 8, 3]
        assert picks == [
            greedy_subset_selection_block(ids, t, 3, 90.0)
            for ids, t in zip(neighbors, times)
        ]

    @common_settings
    @given(
        seed=st.integers(0, 2**31 - 1),
        rounds=st.integers(1, 6),
        limit=st.integers(1, 12),
        budget=st.integers(0, 7),
        inf_rate=st.sampled_from([0.0, 0.3, 0.9]),
    )
    def test_ucb_batch_matches_list_history_reference(
        self, seed, rounds, limit, budget, inf_rate
    ):
        rng = np.random.default_rng(seed)
        protocol = PerigeeUCBProtocol(exploration_constant=8.0, history_limit=limit)
        reference = ListHistoryUCB(90.0, 8.0, limit)
        num_nodes = 5
        for _ in range(rounds):
            neighbors, times = random_blocks(
                int(rng.integers(2**31)), num_nodes, 6, inf_rate, pool=7
            )
            # Keep part of every neighbor set across rounds so histories
            # grow past the limit, and drop the rest like a rewire would.
            for node_id in range(num_nodes):
                old = protocol.history_for(node_id)
                dropped = set(old) - set(neighbors[node_id].tolist())
                protocol.on_neighbors_dropped(node_id, dropped)
                for peer in dropped:
                    reference.history.get(node_id, {}).pop(peer, None)
            batch = protocol.select_retained_batch(
                list(range(num_nodes)), neighbors, times, budget
            )
            expected = [
                reference.select(node_id, ids, block, budget)
                for node_id, (ids, block) in enumerate(zip(neighbors, times))
            ]
            assert batch == expected
        for node_id in range(num_nodes):
            assert protocol.history_for(node_id) == reference.history.get(
                node_id, {}
            )

    def test_ucb_empty_histories_evict_the_silent_neighbor(self):
        protocol = PerigeeUCBProtocol(exploration_constant=1.0)
        neighbors = np.array([2, 4, 6], dtype=np.int64)
        times = np.array([[1.0, 2.0], [NEVER, NEVER], [0.0, 3.0]])
        assert protocol.select_retained_block(
            0, neighbors, times, 8, np.random.default_rng(0)
        ) == {2, 6}
        assert protocol.history_for(0) == {2: [1.0, 2.0], 4: [], 6: [0.0, 3.0]}

    @common_settings
    @given(
        seed=st.integers(0, 2**31 - 1),
        num_nodes=st.integers(2, 14),
        num_blocks=st.integers(0, 6),
        miss_rate=st.sampled_from([0.0, 0.2, 0.7]),
    )
    def test_normalized_blocks_match_per_node_rows(
        self, seed, num_nodes, num_blocks, miss_rate
    ):
        rng = np.random.default_rng(seed)
        edges = {
            (int(u), int(v))
            for u, v in rng.integers(0, num_nodes, size=(3 * num_nodes, 2))
            if u != v
        }
        senders = np.array([u for u, _ in edges], dtype=np.int64)
        receivers = np.array([v for _, v in edges], dtype=np.int64)
        times = rng.exponential(30.0, size=(senders.size, num_blocks))
        # Some receivers never hear some blocks: partially observed nodes.
        times[rng.random(times.shape) < miss_rate] = NEVER
        round_observations = RoundObservations.from_directed_edges(
            num_nodes, np.arange(num_blocks), senders, receivers, times
        )
        node_ids = list(range(num_nodes))
        wanted = [
            np.sort(
                rng.choice(
                    num_nodes,
                    size=int(rng.integers(0, min(num_nodes, 5))),
                    replace=False,
                )
            )
            for _ in node_ids
        ]
        blocks = round_observations.normalized_blocks(node_ids, wanted)
        for node_id, ids, block in zip(node_ids, wanted, blocks):
            expected = round_observations.normalized_rows(node_id, ids)
            assert block.shape == expected.shape
            assert block.tobytes() == expected.tobytes()


# --------------------------------------------------------------------------- #
# Whole-run digests recorded with the one-node-at-a-time update
# --------------------------------------------------------------------------- #
GOLDEN_PROTOCOLS = {
    "perigee-vanilla": PerigeeVanillaProtocol,
    "perigee-subset": PerigeeSubsetProtocol,
    "perigee-ucb": lambda: PerigeeUCBProtocol(history_limit=40),
    "mixed-ucb": lambda: MixedDeploymentProtocol(
        set(range(0, 60, 2)), inner=PerigeeUCBProtocol()
    ),
    "freeride": lambda: _FreeRidingAwarePerigee({3, 17, 42}),
    "eclipse": lambda: _HeadStartPerigee({5, 11, 23, 31}, head_start_ms=30.0),
}

#: sha256 of (edges after every round, flight rounds.jsonl, final
#: state_dict) for 60 nodes, 5 rounds of 12 blocks, seed 4 — recorded before
#: scoring moved into one batched pass per round.
GOLDEN_DIGESTS = {
    "perigee-vanilla": "552384fa91cb2eb5da8229cd3393a2c79cc59adbb6c01153433eaecfdca7fd39",
    "perigee-subset": "f1fd9a696f23b2e8ddb8662adf448a0f1dbb12a59ff4a3c6d253a3cc522f8393",
    "perigee-ucb": "dc67dc9828b663163e076829a87a387ec9c83741e494e9b3e19d295f2d088f66",
    "mixed-ucb": "d6370a27bee9f0a229e8f8c4394e1d9a020e7274bc2c9e23687fc4b0eede7d3f",
    "freeride": "63b7e7d34280e9d62c9044dbaa1a979c3b33c14a6fd3b1bf093747b8e87035af",
    "eclipse": "ef05447df6e05c64fdfc1b3cdf87e6080d592a4870767b20be6e951d6ef942e7",
}


def update_digest(name: str, seed: int = 4, rounds: int = 5) -> str:
    config = default_config(
        num_nodes=60, rounds=rounds, blocks_per_round=12, seed=seed
    )
    simulator = Simulator(config, GOLDEN_PROTOCOLS[name]())
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as directory:
        flight = FlightRecorder(directory, delay_every=0)
        with use_flight_recorder(flight):
            for round_index in range(rounds):
                simulator.run_round(round_index)
                digest.update(repr(simulator.network.edge_list()).encode())
        flight.close()
        digest.update((Path(directory) / "rounds.jsonl").read_bytes())
    digest.update(json.dumps(simulator.state_dict(), sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_DIGESTS))
def test_update_records_match_per_node_update(name):
    assert update_digest(name) == GOLDEN_DIGESTS[name]


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("name", ["perigee-vanilla", "perigee-subset", "perigee-ucb"])
def test_chunk_size_never_changes_records(monkeypatch, name, chunk):
    monkeypatch.setattr(perigee_base, "SCORE_CHUNK_NODES", chunk)
    assert update_digest(name) == GOLDEN_DIGESTS[name]


def test_rng_scorers_keep_the_per_node_path():
    class RandomPickVanilla(PerigeeVanillaProtocol):
        calls = 0

        def select_retained_block(self, node_id, neighbors, times, retain_budget, rng):
            RandomPickVanilla.calls += 1
            return {int(rng.choice(neighbors))}

    assert PerigeeVanillaProtocol().scores_in_batch
    assert MixedDeploymentProtocol({0}).scores_in_batch
    assert not RandomPickVanilla().scores_in_batch
    assert not MixedDeploymentProtocol({0}, inner=RandomPickVanilla()).scores_in_batch
    config = default_config(num_nodes=30, rounds=1, blocks_per_round=6, seed=1)
    Simulator(config, RandomPickVanilla()).run_round(0)
    assert RandomPickVanilla.calls == config.num_nodes


# --------------------------------------------------------------------------- #
# UCB checkpoints written with list histories
# --------------------------------------------------------------------------- #
UCB_FIXTURE = Path(__file__).parent / "fixtures" / "ucb_checkpoint_list_history.json"
#: sha256 of the final state_dict JSON after rounds 2 and 3, as written by
#: the list-history implementation.
UCB_FINAL_SHA256 = "3100d7f4cbd895fe79a81cbae1e190aff239ee7380ba9fcbc6e8d1c8d9bd0422"


def build_ucb_simulator() -> Simulator:
    config = default_config(num_nodes=12, rounds=4, blocks_per_round=4, seed=21)
    return Simulator(config, PerigeeUCBProtocol(history_limit=6))


def state_sha256(simulator: Simulator) -> str:
    payload = json.dumps(simulator.state_dict(), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


class TestUCBCheckpointCompatibility:
    def test_list_history_checkpoint_resumes_bit_identically(self):
        simulator = build_ucb_simulator()
        simulator.load_state_dict(json.loads(UCB_FIXTURE.read_text()))
        simulator.run_round(2)
        simulator.run_round(3)
        assert state_sha256(simulator) == UCB_FINAL_SHA256

    def test_state_dict_serialises_to_the_list_history_bytes(self):
        simulator = build_ucb_simulator()
        simulator.run_round(0)
        simulator.run_round(1)
        snapshot = json.dumps(simulator.state_dict(), sort_keys=True)
        assert snapshot == UCB_FIXTURE.read_text()
        simulator.run_round(2)
        simulator.run_round(3)
        assert state_sha256(simulator) == UCB_FINAL_SHA256


# --------------------------------------------------------------------------- #
# Telemetry spans
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("protocol", ["perigee-subset", "perigee-ucb"])
def test_score_and_rewire_spans_fire_once_per_round(protocol):
    from repro.protocols.registry import make_protocol

    config = default_config(num_nodes=40, rounds=3, blocks_per_round=8, seed=2)
    simulator = Simulator(config, make_protocol(protocol))
    recorder = MetricsRecorder()
    with use_recorder(recorder):
        for round_index in range(3):
            simulator.run_round(round_index)
    score = recorder.span_stats("perigee.score")
    rewire = recorder.span_stats("perigee.rewire")
    assert score.count == 3 and rewire.count == 3
    assert score.total_s > 0.0 and rewire.total_s > 0.0


# --------------------------------------------------------------------------- #
# The invariant phase (a) depends on
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    num_nodes=st.integers(3, 30),
    out_degree=st.integers(1, 6),
    max_incoming=st.integers(1, 10),
    operations=st.integers(1, 6),
)
def test_rewiring_a_node_changes_only_its_own_outgoing_set(
    seed, num_nodes, out_degree, max_incoming, operations
):
    rng = np.random.default_rng(seed)
    network = P2PNetwork(num_nodes, out_degree, max_incoming)
    random_initial_topology(network, rng)
    for _ in range(operations):
        node_id = int(rng.integers(num_nodes))
        before = {v: network.outgoing_neighbors(v) for v in range(num_nodes)}
        if rng.random() < 0.5:
            others = [v for v in range(num_nodes) if v != node_id]
            keep = rng.choice(
                others, size=min(len(others), int(rng.integers(0, out_degree + 1))),
                replace=False,
            )
            num_random = int(rng.integers(0, out_degree - keep.size + 1))
            network.replace_outgoing(node_id, keep.tolist(), rng, num_random)
        else:
            if rng.random() < 0.5:
                network.disconnect_all_outgoing(node_id)
            network.fill_random_outgoing(node_id, rng)
        for v in range(num_nodes):
            if v != node_id:
                assert network.outgoing_neighbors(v) == before[v]
        network.validate_invariants()
