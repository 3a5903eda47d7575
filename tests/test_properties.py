"""Property-based tests (hypothesis) on core data structures and invariants."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.network import P2PNetwork
from repro.core.observations import (
    NEVER,
    RoundObservations,
    percentile_score,
    percentile_scores,
)
from repro.core.propagation import PropagationEngine
from repro.latency.base import MatrixLatencyModel
from repro.metrics.delay import hash_power_reach_times, reach_time_for_source
from repro.protocols.scoring import confidence_bounds, greedy_subset_selection_batch
from tests.conftest import adjacency

common_settings = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------------- #
# Network invariants
# --------------------------------------------------------------------------- #
@common_settings
@given(
    num_nodes=st.integers(min_value=5, max_value=40),
    out_degree=st.integers(min_value=1, max_value=6),
    max_incoming=st.integers(min_value=1, max_value=10),
    seed=st.integers(min_value=0, max_value=1000),
    operations=st.lists(
        st.tuples(
            st.sampled_from(
                ["connect", "disconnect", "replace", "clique", "save", "load"]
            ),
            st.integers(0, 1_000_000),
            st.integers(0, 1_000_000),
        ),
        max_size=200,
    ),
)
def test_network_invariants_hold_under_arbitrary_operations(
    num_nodes, out_degree, max_incoming, seed, operations
):
    network = P2PNetwork(num_nodes, out_degree, max_incoming)
    rng = np.random.default_rng(seed)
    saved = json.loads(json.dumps(network.state_dict()))
    for op, raw_a, raw_b in operations:
        a, b = raw_a % num_nodes, raw_b % num_nodes
        if op == "connect" and a != b:
            network.connect(a, b)
        elif op == "disconnect":
            network.disconnect(a, b)
        elif op == "replace":
            keep = sorted(network.outgoing_neighbors(a))[: raw_b % 3]
            num_random = min(1, network.out_degree - len(keep))
            network.replace_outgoing(a, keep, rng, num_random=num_random)
        elif op == "clique":
            network.make_fully_connected()
        elif op == "save":
            saved = json.loads(json.dumps(network.state_dict()))
        elif op == "load":
            network.load_state_dict(saved)
        # Each node's incoming count is the number of outgoing sets that
        # hold it, and never exceeds the incoming budget.
        targets = [
            peer
            for node in range(num_nodes)
            for peer in network.outgoing_neighbors(node)
        ]
        counts = np.bincount(
            np.asarray(targets, dtype=np.int64), minlength=num_nodes
        )
        assert [
            network.max_incoming - network.incoming_slots_free(node)
            for node in range(num_nodes)
        ] == counts.tolist()
        assert counts.max() <= network.max_incoming
        for node in range(num_nodes):
            assert len(network.outgoing_neighbors(node)) <= network.out_degree
    network.validate_invariants()
    # The undirected edge view is consistent with the outgoing sets.
    for u, v in network.edge_list():
        assert network.has_edge(u, v)


def _reference_edges(network):
    """Set-and-sort edge export: every outgoing link, canonicalised."""
    seen = set()
    for u in range(network.num_nodes):
        for v in network.outgoing_neighbors(u):
            seen.add((min(u, v), max(u, v)))
    return sorted(seen)


@common_settings
@given(
    num_nodes=st.integers(min_value=2, max_value=30),
    seed=st.integers(min_value=0, max_value=1000),
    operations=st.lists(
        st.tuples(
            st.sampled_from(["connect", "disconnect", "replace"]),
            st.integers(0, 1_000_000),
            st.integers(0, 1_000_000),
        ),
        max_size=120,
    ),
)
def test_to_numpy_edges_matches_set_and_sort_reference(num_nodes, seed, operations):
    network = P2PNetwork(num_nodes, out_degree=4, max_incoming=6)
    rng = np.random.default_rng(seed)
    for op, raw_a, raw_b in operations:
        a, b = raw_a % num_nodes, raw_b % num_nodes
        if a == b:
            continue
        elif op == "connect":
            network.connect(a, b)
        elif op == "disconnect":
            network.disconnect(a, b)
        else:
            keep = sorted(network.outgoing_neighbors(a))[: raw_b % 3]
            network.replace_outgoing(a, keep, rng, num_random=1)
    reference = _reference_edges(network)
    edges = network.to_numpy_edges()
    assert edges.dtype == np.int64 and edges.shape == (len(reference), 2)
    assert edges.tolist() == [list(edge) for edge in reference]
    assert network.edge_list() == reference
    assert all(type(u) is int and type(v) is int for u, v in network.edge_list())
    assert network.num_edges() == len(reference)


def test_to_numpy_edges_deduplicates_fully_connected_overlay():
    network = P2PNetwork(5, out_degree=2, max_incoming=2)
    network.make_fully_connected()
    assert network.edge_list() == _reference_edges(network)
    assert network.num_edges() == 10


@common_settings
@given(
    num_nodes=st.integers(min_value=4, max_value=30),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_fill_random_outgoing_uses_full_budget_when_capacity_allows(num_nodes, seed):
    rng = np.random.default_rng(seed)
    out_degree = min(3, num_nodes - 1)
    network = P2PNetwork(num_nodes, out_degree=out_degree, max_incoming=num_nodes)
    for node in range(num_nodes):
        network.fill_random_outgoing(node, rng)
    neighbors = adjacency(network)
    for node in range(num_nodes):
        # A node fills its whole outgoing budget unless it is already
        # connected (in either direction) to every other node — duplicate
        # connections between a pair are never created.
        filled = len(network.outgoing_neighbors(node))
        assert filled == out_degree or len(neighbors[node]) == num_nodes - 1
    network.validate_invariants()


# --------------------------------------------------------------------------- #
# Propagation invariants
# --------------------------------------------------------------------------- #
@common_settings
@given(
    num_nodes=st.integers(min_value=4, max_value=25),
    seed=st.integers(min_value=0, max_value=500),
    latency_scale=st.floats(min_value=1.0, max_value=200.0),
    validation=st.floats(min_value=0.0, max_value=100.0),
)
def test_propagation_arrival_times_satisfy_first_arrival_property(
    num_nodes, seed, latency_scale, validation
):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(1.0, latency_scale + 1.0, size=(num_nodes, num_nodes))
    matrix = (raw + raw.T) / 2
    np.fill_diagonal(matrix, 0.0)
    latency = MatrixLatencyModel(matrix)
    engine = PropagationEngine(latency, np.full(num_nodes, validation))
    network = P2PNetwork(num_nodes, out_degree=min(3, num_nodes - 1), max_incoming=num_nodes)
    for node in range(num_nodes):
        network.fill_random_outgoing(node, rng)
    source = int(rng.integers(0, num_nodes))
    result = engine.propagate(network, [source])
    arrival = result.arrival_times[0]
    assert arrival[source] == pytest.approx(0.0)
    # Arrival time at every node equals the minimum forwarding time among its
    # neighbors (the defining fixed point of the propagation model).
    forwarding = engine.forwarding_times(network, result, 0)
    for node in range(num_nodes):
        if node == source or not forwarding[node]:
            continue
        assert arrival[node] == pytest.approx(min(forwarding[node].values()), rel=1e-9)
    # Monotonicity: raising validation delays can never speed anything up.
    slower_engine = PropagationEngine(latency, np.full(num_nodes, validation + 10.0))
    slower = slower_engine.propagate(network, [source]).arrival_times[0]
    finite = np.isfinite(arrival)
    assert np.all(slower[finite] >= arrival[finite] - 1e-9)


# --------------------------------------------------------------------------- #
# Metric invariants
# --------------------------------------------------------------------------- #
@common_settings
@given(
    num_nodes=st.integers(min_value=3, max_value=30),
    seed=st.integers(min_value=0, max_value=500),
)
def test_reach_time_monotone_in_target(num_nodes, seed):
    rng = np.random.default_rng(seed)
    arrival = rng.uniform(0, 100, size=num_nodes)
    arrival[0] = 0.0
    hash_power = rng.dirichlet(np.ones(num_nodes))
    previous = 0.0
    for target in (0.1, 0.3, 0.5, 0.7, 0.9, 1.0):
        value = reach_time_for_source(arrival, hash_power, target)
        assert value >= previous - 1e-9
        previous = value
    # The vectorised version agrees with the scalar one.
    matrix = np.tile(arrival, (num_nodes, 1))
    vectorised = hash_power_reach_times(matrix, hash_power, 0.9)
    assert np.allclose(vectorised, reach_time_for_source(arrival, hash_power, 0.9))


@common_settings
@given(
    values=st.lists(
        st.one_of(
            st.floats(min_value=0.0, max_value=1e6),
            st.just(NEVER),
        ),
        min_size=1,
        max_size=50,
    ),
    percentile=st.floats(min_value=0.0, max_value=100.0),
)
def test_percentile_score_bounds(values, percentile):
    score = percentile_score(values, percentile)
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        assert math.isinf(score)
    elif math.isfinite(score):
        assert min(finite) - 1e-9 <= score <= max(finite) + 1e-9
    # Monotonicity in the percentile.
    if finite:
        low = percentile_score(values, 10.0)
        high = percentile_score(values, 95.0)
        assert (not math.isfinite(high)) or low <= high + 1e-9


# --------------------------------------------------------------------------- #
# Scoring invariants
# --------------------------------------------------------------------------- #
@common_settings
@given(
    num_neighbors=st.integers(min_value=1, max_value=8),
    num_blocks=st.integers(min_value=1, max_value=20),
    budget=st.integers(min_value=0, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
def test_greedy_subset_selection_properties(num_neighbors, num_blocks, budget, seed):
    rng = np.random.default_rng(seed)
    neighbors = np.arange(1, num_neighbors + 1)
    times = rng.uniform(0, 100, size=(num_neighbors, num_blocks))
    selected = greedy_subset_selection_batch([neighbors], [times], budget)[0]
    assert len(selected) == min(budget, num_neighbors)
    assert len(set(selected)) == len(selected)
    assert set(selected) <= set(neighbors.tolist())

    def group_score(group):
        # The percentile of the group's per-block best delivery.
        best = times[np.asarray(group) - 1].min(axis=0)
        return percentile_scores(best[None, :])[0]

    # Greedy extension never worsens the joint group score.
    if len(selected) >= 2:
        shorter = group_score(selected[:-1])
        longer = group_score(selected)
        if math.isfinite(shorter):
            assert longer <= shorter + 1e-9


@common_settings
@given(
    samples=st.lists(
        st.floats(min_value=0.0, max_value=1e4), min_size=0, max_size=200
    )
)
def test_confidence_interval_brackets_estimate(samples):
    estimate, lower, upper = confidence_bounds([np.asarray(samples, dtype=float)])
    if samples:
        assert lower[0] <= estimate[0] + 1e-9
        assert estimate[0] <= upper[0] + 1e-9
        assert min(samples) <= estimate[0] <= max(samples)
    else:
        assert math.isinf(estimate[0])


# --------------------------------------------------------------------------- #
# Observation normalisation invariants
# --------------------------------------------------------------------------- #
@common_settings
@given(
    num_blocks=st.integers(min_value=1, max_value=15),
    num_neighbors=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=500),
)
def test_normalized_observations_have_zero_minimum_per_block(
    num_blocks, num_neighbors, seed
):
    rng = np.random.default_rng(seed)
    neighbors = np.arange(1, num_neighbors + 1)
    observations = RoundObservations.from_directed_edges(
        num_neighbors + 1,
        np.arange(num_blocks),
        senders=neighbors,
        receivers=np.zeros(num_neighbors, dtype=np.int64),
        times=rng.uniform(10, 500, size=(num_neighbors, num_blocks)),
    )
    normalized = observations.normalized_rows(0, neighbors)
    assert normalized.shape == (num_neighbors, num_blocks)
    assert np.all(normalized.min(axis=0) == pytest.approx(0.0))
    assert np.all(normalized >= 0)
