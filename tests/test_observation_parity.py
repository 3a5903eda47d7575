"""Property-based parity: the array-native pipeline vs plain-dict references.

The columnar ``RoundObservations`` with vectorised Equation-2 normalisation
and scoring promises *bit-for-bit* the behaviour of the original dict-of-dicts
observation pipeline.  This suite pins that promise with reference
implementations written over plain dicts (per-edge scalar collection,
per-value normalisation, scalar percentile loops, per-neighbor
``np.percentile`` confidence intervals) and asserts exact equality —
normalised timestamps, scores, retained-neighbor sets, and whole-simulation
outcomes — across random topologies, latencies and seeds.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.network import P2PNetwork
from repro.core.observations import (
    NEVER,
    RoundObservations,
    batched_percentile_scores,
    order_statistics,
    percentile_score,
    percentile_scores,
)
from repro.core.propagation import PropagationEngine
from repro.core.simulator import Simulator
from repro.latency.base import MatrixLatencyModel
from repro.protocols.base import random_initial_topology
from repro.protocols.perigee.base import PerigeeBase
from repro.protocols.perigee.subset import PerigeeSubsetProtocol
from repro.protocols.perigee.ucb import PerigeeUCBProtocol
from repro.protocols.perigee.vanilla import PerigeeVanillaProtocol
from repro.protocols.registry import make_protocol
from repro.protocols.scoring import (
    _linear_percentile_rows,
    confidence_bounds,
    greedy_subset_selection_batch,
)
from repro.security.eclipse import _HeadStartPerigee
from repro.security.freeride import _FreeRidingAwarePerigee
from tests.conftest import adjacency

common_settings = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ALL_VARIANTS = [PerigeeVanillaProtocol, PerigeeUCBProtocol, PerigeeSubsetProtocol]


# --------------------------------------------------------------------------- #
# Round construction + reference (pre-refactor) implementations
# --------------------------------------------------------------------------- #
def build_round(num_nodes, out_degree, num_blocks, seed):
    """Random topology + latencies + one propagated round."""
    rng = np.random.default_rng(seed)
    network = P2PNetwork(num_nodes, out_degree=out_degree, max_incoming=8)
    random_initial_topology(network, rng)
    matrix = rng.uniform(1.0, 200.0, size=(num_nodes, num_nodes))
    latency = MatrixLatencyModel(matrix)
    validation = rng.uniform(0.0, 60.0, size=num_nodes)
    engine = PropagationEngine(latency, validation)
    sources = rng.integers(0, num_nodes, size=num_blocks)
    result = engine.propagate(network, sources)
    return rng, network, engine, result


def legacy_collect(engine, network, result, block_ids):
    """Reference collection: ``{node: {block_id: {neighbor: timestamp}}}``.

    Built one block at a time from the engine's scalar per-edge
    ``forwarding_times``, the way the seed's simulator recorded observation
    sets; nodes without neighbors observe nothing.
    """
    observations = {node_id: {} for node_id in range(network.num_nodes)}
    for index, block_id in enumerate(block_ids):
        forwarding = engine.forwarding_times(network, result, index)
        for receiver, deliveries in forwarding.items():
            if deliveries:
                observations[receiver][block_id] = dict(deliveries)
    return observations


def legacy_normalized(by_block):
    """The seed's Equation-2 normalisation of one node's dict set."""
    normalized = {}
    for block_id, deliveries in by_block.items():
        finite = [t for t in deliveries.values() if math.isfinite(t)]
        if not finite:
            continue
        first = min(finite)
        normalized[block_id] = {
            neighbor: timestamp - first if math.isfinite(timestamp) else NEVER
            for neighbor, timestamp in deliveries.items()
        }
    return normalized


def legacy_times_block(by_block, neighbors):
    """``(len(neighbors), blocks)`` timestamps of a dict set, ``NEVER`` if absent."""
    rows = [
        [deliveries.get(neighbor, NEVER) for deliveries in by_block.values()]
        for neighbor in neighbors
    ]
    return np.array(rows, dtype=float).reshape(len(neighbors), len(by_block))


def round_from_dicts(num_nodes, block_ids, reference):
    """The columnar round holding exactly the reference dict observations."""
    edges = sorted(
        (sender, receiver)
        for receiver, by_block in reference.items()
        for sender in (by_block[block_ids[0]] if by_block else ())
    )
    times = [
        [reference[receiver][block_id][sender] for block_id in block_ids]
        for sender, receiver in edges
    ]
    return RoundObservations.from_directed_edges(
        num_nodes,
        block_ids,
        senders=[sender for sender, _ in edges],
        receivers=[receiver for _, receiver in edges],
        times=np.array(times, dtype=float).reshape(len(edges), len(block_ids)),
    )


def legacy_vanilla_scores(by_block, neighbors, percentile=90.0):
    """The seed's per-neighbor percentile loop."""
    scores = {}
    for neighbor in neighbors:
        values = []
        for deliveries in by_block.values():
            values.append(deliveries.get(neighbor, NEVER))
        scores[neighbor] = percentile_score(values, percentile)
    return scores


def legacy_greedy_subset(by_block, neighbors, subset_size, percentile=90.0):
    """The seed's dict-based greedy complement-aware selection."""
    remaining = {int(neighbor) for neighbor in neighbors}
    if subset_size == 0 or not remaining:
        return []
    block_ids = sorted(by_block)
    per_block = [by_block[block_id] for block_id in block_ids]
    timestamps = {
        neighbor: np.array(
            [deliveries.get(neighbor, NEVER) for deliveries in per_block],
            dtype=float,
        )
        for neighbor in remaining
    }
    selected = []
    group_best = np.full(len(block_ids), NEVER, dtype=float)
    while remaining and len(selected) < subset_size:
        best_neighbor = None
        best_score = math.inf
        best_transformed = None
        for neighbor in sorted(remaining):
            transformed = np.minimum(timestamps[neighbor], group_best)
            score = percentile_score(transformed, percentile)
            if score < best_score:
                best_score = score
                best_neighbor = neighbor
                best_transformed = transformed
        if best_neighbor is None:
            def finite_mean(values):
                finite = values[np.isfinite(values)]
                return float(finite.mean()) if finite.size else math.inf

            best_neighbor = min(
                sorted(remaining), key=lambda peer: finite_mean(timestamps[peer])
            )
            best_transformed = np.minimum(timestamps[best_neighbor], group_best)
        selected.append(best_neighbor)
        remaining.discard(best_neighbor)
        group_best = best_transformed
    return selected


def legacy_confidence_interval(samples, percentile=90.0, constant=60.0):
    """The seed's per-neighbor interval (direct ``np.percentile``)."""
    finite = [t for t in samples if math.isfinite(t)]
    if not finite:
        return (NEVER, NEVER, NEVER, 0)
    estimate = float(np.percentile(np.asarray(finite, dtype=float), percentile))
    m = len(finite)
    if m >= 2:
        half_width = constant * math.sqrt(math.log(m) / (2.0 * m))
    else:
        half_width = constant * math.sqrt(math.log(2.0) / 2.0) * 4.0
    return (estimate, estimate - half_width, estimate + half_width, m)


round_strategy = dict(
    num_nodes=st.integers(min_value=8, max_value=36),
    out_degree=st.integers(min_value=2, max_value=6),
    num_blocks=st.integers(min_value=1, max_value=14),
    seed=st.integers(min_value=0, max_value=10_000),
)


# --------------------------------------------------------------------------- #
# Raw collection and normalisation parity
# --------------------------------------------------------------------------- #
@common_settings
@given(**round_strategy)
def test_materialised_observation_sets_match_legacy_collection(
    num_nodes, out_degree, num_blocks, seed
):
    _, network, engine, result = build_round(
        num_nodes, out_degree, num_blocks, seed
    )
    block_ids = list(range(num_blocks))
    reference = legacy_collect(engine, network, result, block_ids)
    observations = engine.round_observations(network, result, block_ids=block_ids)
    assert observations.num_nodes == len(reference)
    for node_id, expected in reference.items():
        neighbors = observations.neighbors_of(node_id).tolist()
        columns = observations.raw_times(node_id).T.tolist()
        materialised = {
            block_id: dict(zip(neighbors, column))
            for block_id, column in zip(block_ids, columns)
            if neighbors
        }
        assert materialised == expected


@common_settings
@given(**round_strategy)
def test_normalized_rows_match_legacy_normalisation(
    num_nodes, out_degree, num_blocks, seed
):
    _, network, engine, result = build_round(
        num_nodes, out_degree, num_blocks, seed
    )
    block_ids = list(range(num_blocks))
    reference = legacy_collect(engine, network, result, block_ids)
    observations = engine.round_observations(network, result, block_ids=block_ids)
    for node_id in range(num_nodes):
        normalized = legacy_normalized(reference[node_id])
        neighbors = np.array(adjacency(network)[node_id], dtype=np.int64)
        rows = observations.normalized_rows(node_id, neighbors)
        expected = legacy_times_block(normalized, neighbors)
        # Exact equality, including the inf pattern of never-delivered blocks.
        assert rows.shape == expected.shape
        assert np.array_equal(rows, expected)


# --------------------------------------------------------------------------- #
# Scoring parity (the three Perigee scoring methods)
# --------------------------------------------------------------------------- #
@common_settings
@given(**round_strategy)
def test_vanilla_scores_match_legacy_loop(num_nodes, out_degree, num_blocks, seed):
    _, network, engine, result = build_round(
        num_nodes, out_degree, num_blocks, seed
    )
    block_ids = list(range(num_blocks))
    reference = legacy_collect(engine, network, result, block_ids)
    observations = engine.round_observations(network, result, block_ids=block_ids)
    for node_id in range(num_nodes):
        normalized = legacy_normalized(reference[node_id])
        outgoing = sorted(network.outgoing_neighbors(node_id))
        expected = legacy_vanilla_scores(normalized, outgoing)
        neighbors = np.array(outgoing, dtype=np.int64)
        times = observations.normalized_rows(node_id, neighbors)
        actual = dict(zip(outgoing, percentile_scores(times).tolist()))
        assert actual == expected


@common_settings
@given(**round_strategy, budget=st.integers(min_value=0, max_value=8))
def test_greedy_subset_matches_legacy_selection(
    num_nodes, out_degree, num_blocks, seed, budget
):
    _, network, engine, result = build_round(
        num_nodes, out_degree, num_blocks, seed
    )
    block_ids = list(range(num_blocks))
    reference = legacy_collect(engine, network, result, block_ids)
    observations = engine.round_observations(network, result, block_ids=block_ids)
    expected, neighbors, times = [], [], []
    for node_id in range(num_nodes):
        normalized = legacy_normalized(reference[node_id])
        outgoing = sorted(network.outgoing_neighbors(node_id))
        expected.append(legacy_greedy_subset(normalized, outgoing, budget))
        ids = np.array(outgoing, dtype=np.int64)
        neighbors.append(ids)
        times.append(observations.normalized_rows(node_id, ids))
    assert greedy_subset_selection_batch(neighbors, times, budget) == expected


@common_settings
@given(
    histories=st.lists(
        st.lists(
            st.one_of(
                st.floats(
                    min_value=0.0,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                st.just(NEVER),
            ),
            max_size=60,
        ),
        min_size=1,
        max_size=8,
    ),
    percentile=st.floats(min_value=1.0, max_value=100.0),
)
def test_stacked_intervals_match_per_neighbor_reference(histories, percentile):
    # UCB stores finite samples only, so the bounds see filtered histories.
    finite = [
        np.array([t for t in samples if math.isfinite(t)], dtype=float)
        for samples in histories
    ]
    estimate, lower, upper = confidence_bounds(finite, percentile=percentile)
    for index, samples in enumerate(histories):
        expected = legacy_confidence_interval(samples, percentile=percentile)
        assert (estimate[index], lower[index], upper[index]) == expected[:3]


@common_settings
@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=120),
    seed=st.integers(min_value=0, max_value=10_000),
    percentile=st.floats(min_value=0.0, max_value=100.0),
    distinct=st.sampled_from([None, 1, 2, 5]),
)
def test_linear_percentile_rows_is_bitwise_np_percentile(
    rows, cols, seed, percentile, distinct
):
    rng = np.random.default_rng(seed)
    if distinct is None:
        stacked = rng.normal(scale=100.0, size=(rows, cols))
    else:
        # Duplicate-heavy rows: both anchors often fall inside one run of
        # equal samples.
        stacked = rng.integers(0, distinct, size=(rows, cols)) * 37.5
    expected = np.percentile(stacked, percentile, axis=1)
    actual = _linear_percentile_rows(stacked, percentile)
    assert np.array_equal(expected, actual)


@common_settings
@given(
    shape=st.one_of(
        st.tuples(st.integers(1, 6), st.integers(1, 70)),
        st.tuples(st.integers(1, 4), st.integers(1, 5), st.integers(1, 70)),
    ),
    seed=st.integers(min_value=0, max_value=10_000),
    rank=st.floats(min_value=0.0, max_value=1.0),
    adjacent=st.booleans(),
    ties=st.booleans(),
    infinity_fraction=st.floats(min_value=0.0, max_value=0.5),
    nans=st.integers(min_value=0, max_value=3),
)
@example(
    shape=(4, 1), seed=0, rank=0.9, adjacent=True, ties=False,
    infinity_fraction=0.0, nans=0,
)
@example(
    shape=(3, 2, 11), seed=1, rank=0.5, adjacent=False, ties=True,
    infinity_fraction=0.2, nans=2,
)
# UCB's slab at fig3a's scale: on rows this long the partition at ``upper``
# leaves some rows' ``lower``-th statistic away from position ``lower``.
@example(
    shape=(400, 1140), seed=0, rank=0.9, adjacent=True, ties=False,
    infinity_fraction=0.0, nans=0,
)
def test_order_statistics_matches_full_sort(
    shape, seed, rank, adjacent, ties, infinity_fraction, nans
):
    rng = np.random.default_rng(seed)
    values = rng.normal(scale=100.0, size=shape)
    if ties:
        values = np.round(values / 80.0)
    values[rng.uniform(size=shape) < infinity_fraction] = np.inf
    values[rng.uniform(size=shape) < infinity_fraction / 4] = -np.inf
    flat = values.reshape(-1)
    flat[rng.choice(flat.size, size=min(nans, flat.size), replace=False)] = np.nan
    cols = shape[-1]
    upper = min(int(rank * cols), cols - 1)
    lower = upper - 1 if adjacent and upper > 0 else upper
    ordered = np.sort(values, axis=-1)
    low, high = order_statistics(values.copy(), lower, upper)
    assert low.shape == high.shape == shape[:-1]
    assert np.array_equal(low, ordered[..., lower], equal_nan=True)
    assert np.array_equal(high, ordered[..., upper], equal_nan=True)


@pytest.mark.parametrize("lower,upper", [(3, 2), (1, 3), (-1, 1)])
def test_order_statistics_rejects_anchors_that_are_not_neighbours(lower, upper):
    with pytest.raises(ValueError):
        order_statistics(np.arange(10.0).reshape(2, 5), lower, upper)


@common_settings
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    percentile=st.floats(min_value=0.0, max_value=100.0),
)
def test_percentile_scores_leaves_its_input_unchanged(seed, percentile):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, 500.0, size=(7, 60))
    times[rng.uniform(size=times.shape) < 0.1] = NEVER
    before = times.tobytes()
    percentile_scores(times, percentile)
    assert times.tobytes() == before


@common_settings
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    widths=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=5),
)
def test_batched_percentile_scores_leaves_its_inputs_unchanged(seed, widths):
    rng = np.random.default_rng(seed)
    blocks = [rng.uniform(0.0, 500.0, size=(3, width)) for width in widths]
    before = [block.tobytes() for block in blocks]
    batched_percentile_scores(blocks, 90.0)
    assert [block.tobytes() for block in blocks] == before


@common_settings
@given(
    rows=st.integers(min_value=0, max_value=6),
    cols=st.integers(min_value=0, max_value=40),
    seed=st.integers(min_value=0, max_value=10_000),
    percentile=st.floats(min_value=0.0, max_value=100.0),
    infinity_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_percentile_scores_matches_scalar_rows(
    rows, cols, seed, percentile, infinity_fraction
):
    rng = np.random.default_rng(seed)
    times = rng.uniform(0.0, 500.0, size=(rows, cols))
    times[rng.uniform(size=times.shape) < infinity_fraction] = NEVER
    vector = percentile_scores(times, percentile)
    for row in range(rows):
        assert vector[row] == percentile_score(times[row], percentile)


# --------------------------------------------------------------------------- #
# Retained-neighbor and full-simulation parity for the three variants
# --------------------------------------------------------------------------- #
class _DictPathSimulator(Simulator):
    """Collects every round through the plain-dict reference collection."""

    def collect_observations(self, blocks, result):
        block_ids = [block.block_id for block in blocks]
        reference = legacy_collect(self.engine, self.network, result, block_ids)
        return round_from_dicts(self.network.num_nodes, block_ids, reference)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("seed", [0, 3])
def test_simulation_identical_on_array_and_dict_paths(variant, seed):
    config = default_config(
        num_nodes=50, rounds=5, blocks_per_round=12, seed=seed
    )
    fast = Simulator(config, variant())
    slow = _DictPathSimulator(config, variant())
    fast.run(rounds=5)
    slow.run(rounds=5)
    assert fast.evaluate().tobytes() == slow.evaluate().tobytes()
    assert fast.network.edge_list() == slow.network.edge_list()


class _LegacyOnlyVanilla(PerigeeBase):
    """A third-party variant whose batch scorer loops the scalar score.

    Each node's neighbors are ranked by the seed's per-neighbor
    ``percentile_score`` loop, one node after another; it must pick exactly
    what the built-in vectorised Vanilla picks.
    """

    name = "legacy-only-vanilla"

    def select_retained_batch(self, node_ids, neighbors, times, retain_budget):
        retained = []
        for ids, block in zip(neighbors, times):
            scores = {
                neighbor: percentile_score(row, 90.0)
                for neighbor, row in zip(ids.tolist(), block)
            }
            ranked = sorted(scores, key=lambda peer: (scores[peer], peer))
            retained.append(set(ranked[:retain_budget]))
        return retained


def test_legacy_select_retained_subclass_matches_vanilla():
    """A third-party variant scoring one node at a time matches the batch."""
    config = default_config(num_nodes=40, rounds=4, blocks_per_round=10, seed=6)
    legacy = Simulator(config, _LegacyOnlyVanilla())
    vanilla = Simulator(config, PerigeeVanillaProtocol())
    legacy.run(rounds=4)
    vanilla.run(rounds=4)
    assert legacy.network.edge_list() == vanilla.network.edge_list()


def test_legacy_variant_receives_global_block_ids():
    """``update`` receives the simulator's real (global) block numbering.

    Variants that accumulate observations across rounds rely on blocks
    being numbered globally — the round must not renumber them per round.
    """
    seen_block_ids: list[int] = []

    class _Recorder(PerigeeVanillaProtocol):
        name = "recorder"

        def update(self, context, network, observations, rng):
            seen_block_ids.extend(observations.block_ids.tolist())
            super().update(context, network, observations, rng)

    config = default_config(num_nodes=30, rounds=3, blocks_per_round=5, seed=4)
    Simulator(config, _Recorder()).run(rounds=3)
    # Rounds mine blocks 0..4, 5..9, 10..14; the last round's ids must
    # surface as-is, not as a per-round 0..4 renumbering.
    assert seen_block_ids == list(range(15))


def test_base_without_any_selector_raises():
    config = default_config(num_nodes=20, rounds=1, blocks_per_round=4, seed=0)
    simulator = Simulator(config, PerigeeBase())
    with pytest.raises(NotImplementedError):
        simulator.run_round()


@pytest.mark.parametrize("variant_name", ["perigee-subset", "perigee-ucb"])
def test_simulation_deterministic_across_runs(variant_name):
    config = default_config(num_nodes=40, rounds=4, blocks_per_round=10, seed=9)
    first = Simulator(config, make_protocol(variant_name))
    second = Simulator(config, make_protocol(variant_name))
    first.run(rounds=4)
    second.run(rounds=4)
    assert first.evaluate().tobytes() == second.evaluate().tobytes()


@pytest.mark.parametrize(
    "wrapper_kwargs",
    [
        (_FreeRidingAwarePerigee, {"free_riders": {1, 4, 7}}),
        (_HeadStartPerigee, {"adversaries": {2, 5}, "head_start_ms": 25.0}),
    ],
)
def test_security_wrappers_identical_on_array_and_dict_paths(wrapper_kwargs):
    wrapper, kwargs = wrapper_kwargs
    config = default_config(num_nodes=40, rounds=4, blocks_per_round=10, seed=2)
    fast = Simulator(config, wrapper(**kwargs))
    slow = _DictPathSimulator(config, wrapper(**kwargs))
    fast.run(rounds=4)
    slow.run(rounds=4)
    assert fast.network.edge_list() == slow.network.edge_list()
