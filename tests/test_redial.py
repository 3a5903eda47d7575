"""The bulk Perigee update against the per-node code it replaced.

``PerigeeBase.update`` rewires a whole round with one
:meth:`P2PNetwork.redial` call on pre-drawn random candidates, folds
:meth:`RoundObservations.first_arrivals` rank by rank, and runs Subset's
greedy on a tensor that sheds each picked candidate.  Each is checked here
against the code it replaced, kept in this file as a reference:

* the per-node ``replace_outgoing`` / ``_connect_random`` /
  ``random_initial_topology`` loop, on overlays where dials get declined
  (small ``max_incoming``), where the attempt budget runs out (tiny ``N``),
  with empty nodes and with a mixed-deployment subset of updating nodes:
  same outgoing sets, incoming counts and final generator state, and
  ``topology_version`` rises exactly when the reference mutated something;
* the axis-0 ``np.minimum.reduceat`` segment minimum, bit for bit, with
  ``inf`` and NaN rows and nodes without neighbors;
* the greedy that masks picked candidates instead of removing them.

The redial is exact only because ``Generator.integers(0, n, size=k)``
draws what ``k`` scalar calls draw; the first test pins that for the NumPy
in use.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.network import P2PNetwork
from repro.core.observations import NEVER, RoundObservations, order_statistics
from repro.protocols.base import random_initial_topology
from repro.protocols.scoring import greedy_subset_selection_batch

common_settings = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@pytest.mark.parametrize("n", [2, 40, 150, 1000, 20000, 100000])
def test_batched_integers_match_scalar_draws(n):
    batched = np.random.default_rng(n)
    scalar = np.random.default_rng(n)
    values = batched.integers(0, n, size=5000).tolist()
    assert values == [int(scalar.integers(0, n)) for _ in range(5000)]
    assert batched.bit_generator.state == scalar.bit_generator.state


# --------------------------------------------------------------------------- #
# Reference: the per-node dial loop the redial replaced
# --------------------------------------------------------------------------- #
def reference_connect_random(network, node_id, slots, rng):
    attempts_budget = max(20, 10 * slots) * 10
    attempts = 0
    established = 0
    while established < slots and attempts < attempts_budget:
        attempts += 1
        candidate = int(rng.integers(0, network.num_nodes))
        if candidate == node_id:
            continue
        if network.connect(node_id, candidate):
            established += 1


def reference_replace_outgoing(network, node_id, keep, rng, num_random=0):
    keep_set = {int(peer) for peer in keep}
    for target in list(network.outgoing_neighbors(node_id)):
        if target not in keep_set:
            network.disconnect(node_id, target)
    for target in keep_set:
        if target not in network.outgoing_neighbors(node_id):
            network.connect(node_id, target)
    slots = min(
        num_random + (len(keep_set) - len(network.outgoing_neighbors(node_id))),
        network.outgoing_slots_free(node_id),
    )
    reference_connect_random(network, node_id, slots, rng)


def reference_fill(network, node_id, rng):
    reference_connect_random(
        network, node_id, network.outgoing_slots_free(node_id), rng
    )


def reference_rewire(network, order, kept_by_node, rng):
    """Phase (b) of ``PerigeeBase.update`` as a per-node loop."""
    for node_id in order:
        outgoing = network.outgoing_neighbors(node_id)
        if not outgoing:
            reference_fill(network, node_id, rng)
            continue
        retained = {peer for peer in kept_by_node[node_id] if peer in outgoing}
        reference_replace_outgoing(
            network,
            node_id,
            retained,
            rng,
            num_random=network.out_degree - len(retained),
        )


def random_overlay(num_nodes, out_degree, max_incoming, seed, density):
    """An overlay with some full, some partial and some empty nodes."""
    network = P2PNetwork(num_nodes, out_degree, max_incoming)
    rng = np.random.default_rng(seed)
    for _ in range(int(density * num_nodes * out_degree)):
        u, v = rng.integers(0, num_nodes, size=2).tolist()
        if u != v:
            network.connect(u, v)
    return network


def snapshot(network):
    return (
        [network.outgoing_neighbors(v) for v in range(network.num_nodes)],
        [network.incoming_slots_free(v) for v in range(network.num_nodes)],
    )


def assert_same(network, reference, rng, reference_rng, before, reference_before):
    assert snapshot(network) == snapshot(reference)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    # The reference bumps the version once per edge it touched, so it rose
    # exactly when something changed.
    assert (network.topology_version > before) == (
        reference.topology_version > reference_before
    )
    network.validate_invariants()


overlays = st.tuples(
    st.integers(min_value=2, max_value=30),  # num_nodes
    st.integers(min_value=1, max_value=8),  # out_degree
    st.integers(min_value=1, max_value=10),  # max_incoming
    st.integers(min_value=0, max_value=10_000),  # seed
    st.sampled_from([0.0, 0.3, 1.0, 3.0]),  # density
)


@common_settings
@given(overlay=overlays, updating_share=st.sampled_from([1.0, 0.5, 0.1]))
def test_redial_matches_per_node_rewire_loop(overlay, updating_share):
    num_nodes, out_degree, max_incoming, seed, density = overlay
    network = random_overlay(num_nodes, out_degree, max_incoming, seed, density)
    reference = network.copy()
    choices = np.random.default_rng(seed + 1)
    # A scorer's retained sets: a random subset of each node's peers.
    kept_by_node = {}
    for node_id in range(num_nodes):
        peers = sorted(network.outgoing_neighbors(node_id))
        size = int(choices.integers(0, len(peers) + 1))
        kept_by_node[node_id] = choices.permutation(peers)[:size].astype(int).tolist()
    counts = np.array([0] + [len(kept_by_node[v]) for v in range(num_nodes)])
    offsets = np.cumsum(counts)
    kept = np.array(
        [peer for v in range(num_nodes) for peer in kept_by_node[v]], dtype=np.int64
    )
    # Mixed deployment: only some nodes update, in permutation order.
    updating = choices.uniform(size=num_nodes) < updating_share
    rng = np.random.default_rng(seed + 2)
    reference_rng = np.random.default_rng(seed + 2)
    order = rng.permutation(num_nodes)
    order = order[updating[order]]
    reference_order = [
        int(v) for v in reference_rng.permutation(num_nodes) if updating[v]
    ]
    before, reference_before = network.topology_version, reference.topology_version
    network.redial(order, rng, kept, offsets)
    reference_rewire(reference, reference_order, kept_by_node, reference_rng)
    assert_same(network, reference, rng, reference_rng, before, reference_before)


@common_settings
@given(overlay=overlays)
def test_redial_fill_matches_random_initial_topology_loop(overlay):
    num_nodes, out_degree, max_incoming, seed, density = overlay
    network = random_overlay(num_nodes, out_degree, max_incoming, seed, density)
    reference = network.copy()
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    before, reference_before = network.topology_version, reference.topology_version
    random_initial_topology(network, rng)
    for node_id in reference_rng.permutation(num_nodes):
        reference_fill(reference, int(node_id), reference_rng)
    assert_same(network, reference, rng, reference_rng, before, reference_before)


@common_settings
@given(
    overlay=overlays,
    steps=st.lists(
        st.tuples(
            st.sampled_from(["replace", "fill"]),
            st.integers(0, 1_000_000),
            st.integers(0, 1_000_000),
        ),
        min_size=1,
        max_size=30,
    ),
)
def test_one_node_calls_match_reference(overlay, steps):
    num_nodes, out_degree, max_incoming, seed, density = overlay
    network = random_overlay(num_nodes, out_degree, max_incoming, seed, density)
    reference = network.copy()
    rng = np.random.default_rng(seed)
    reference_rng = np.random.default_rng(seed)
    for op, raw_a, raw_b in steps:
        node_id = raw_a % num_nodes
        before, reference_before = (
            network.topology_version,
            reference.topology_version,
        )
        if op == "fill":
            network.fill_random_outgoing(node_id, rng)
            reference_fill(reference, node_id, reference_rng)
        else:
            # Keep some current peers and some peers the node is not
            # connected to (they are dialled again and may decline), and
            # ask for fewer random peers than would fill the node.
            others = [v for v in range(num_nodes) if v != node_id]
            pool = sorted(network.outgoing_neighbors(node_id)) + others
            keep = sorted(set(pool[: raw_b % (out_degree + 1)]))
            num_random = raw_b % (out_degree - len(keep) + 1)
            network.replace_outgoing(node_id, keep, rng, num_random=num_random)
            reference_replace_outgoing(
                reference, node_id, keep, reference_rng, num_random=num_random
            )
        assert_same(network, reference, rng, reference_rng, before, reference_before)


def test_redial_leaves_generator_alone_when_nothing_is_dialled():
    network = P2PNetwork(10, out_degree=2, max_incoming=5)
    rng = np.random.default_rng(0)
    random_initial_topology(network, rng)
    state, version = rng.bit_generator.state, network.topology_version
    network.redial(np.arange(10), rng)  # every node is already full
    assert rng.bit_generator.state == state
    assert network.topology_version == version


def test_redial_rejects_out_of_range_node():
    network = P2PNetwork(5)
    with pytest.raises(IndexError):
        network.redial([0, 5], np.random.default_rng(0))


def test_redial_spans_several_candidate_batches():
    # 20000 nodes filling 8 slots each draw ~160k candidates: dozens of
    # batches, and the generator still ends where scalar draws leave it.
    network = P2PNetwork(20000, out_degree=8, max_incoming=20)
    reference = network.copy()
    rng = np.random.default_rng(7)
    reference_rng = np.random.default_rng(7)
    random_initial_topology(network, rng)
    for node_id in reference_rng.permutation(20000):
        reference_fill(reference, int(node_id), reference_rng)
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert np.array_equal(network.to_numpy_edges(), reference.to_numpy_edges())


# --------------------------------------------------------------------------- #
# first_arrivals: rank-wise fold vs segment reduceat
# --------------------------------------------------------------------------- #
def reference_first_arrivals(observations):
    out = np.full(
        (observations.num_nodes, observations.num_blocks), NEVER, dtype=float
    )
    starts = observations.indptr[:-1]
    nonempty = observations.indptr[1:] > starts
    if observations.times.shape[0] and nonempty.any():
        out[nonempty] = np.minimum.reduceat(
            observations.times, starts[nonempty], axis=0
        )
    return out


TIME_VALUES = st.sampled_from([0.0, -0.0, 1.5, 2.0, 7.25, 100.0, NEVER, math.nan])


@common_settings
@given(
    num_nodes=st.integers(min_value=1, max_value=40),
    num_blocks=st.integers(min_value=0, max_value=6),
    data=st.data(),
)
def test_first_arrivals_matches_reduceat(num_nodes, num_blocks, data):
    pairs = data.draw(
        st.sets(
            st.tuples(
                st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)
            ),
            max_size=4 * num_nodes,
        )
    )
    senders = np.array([s for s, _ in sorted(pairs)], dtype=np.int64)
    receivers = np.array([r for _, r in sorted(pairs)], dtype=np.int64)
    times = np.array(
        data.draw(
            st.lists(
                TIME_VALUES,
                min_size=len(pairs) * num_blocks,
                max_size=len(pairs) * num_blocks,
            )
        ),
        dtype=float,
    ).reshape(len(pairs), num_blocks)
    observations = RoundObservations.from_directed_edges(
        num_nodes, np.arange(num_blocks), senders, receivers, times
    )
    expected = reference_first_arrivals(observations)
    actual = observations.first_arrivals()
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def test_first_arrivals_folds_across_node_chunks(monkeypatch):
    from repro.core import observations as observations_module

    rng = np.random.default_rng(3)
    num_nodes, num_edges, num_blocks = 50, 300, 5
    senders = rng.integers(0, num_nodes, size=num_edges)
    receivers = rng.integers(0, num_nodes, size=num_edges)
    times = rng.exponential(10.0, size=(num_edges, num_blocks))
    times[rng.uniform(size=times.shape) < 0.2] = NEVER
    times[rng.uniform(size=times.shape) < 0.05] = math.nan
    expected = reference_first_arrivals(
        RoundObservations.from_directed_edges(
            num_nodes, np.arange(num_blocks), senders, receivers, times
        )
    )
    for chunk in (1, 7, 1024):
        monkeypatch.setattr(observations_module, "FOLD_CHUNK_NODES", chunk)
        observations = RoundObservations.from_directed_edges(
            num_nodes, np.arange(num_blocks), senders, receivers, times
        )
        assert observations.first_arrivals().tobytes() == expected.tobytes()


# --------------------------------------------------------------------------- #
# Subset greedy: shrinking tensor vs masked tensor
# --------------------------------------------------------------------------- #
def _finite_mean(values):
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return NEVER
    return float(np.mean(finite))


def reference_masked_greedy(neighbors, times, subset_size, percentile=90.0):
    """The greedy that masked picked candidates out of a fixed tensor."""
    picks = [[] for _ in neighbors]
    groups = {}
    for index, block in enumerate(times):
        groups.setdefault(np.shape(block), []).append(index)
    for (num_neighbors, num_blocks), members in groups.items():
        steps = min(subset_size, num_neighbors)
        if steps == 0:
            continue
        ids = np.stack([np.asarray(neighbors[i], dtype=np.int64) for i in members])
        if num_blocks == 0:
            for index, row in zip(members, ids[:, :steps].tolist()):
                picks[index] = row
            continue
        stacked = np.stack([np.asarray(times[i], dtype=float) for i in members])
        rank = percentile / 100.0 * (num_blocks - 1)
        lower = int(math.floor(rank))
        upper = int(math.ceil(rank))
        weight = rank - lower
        rows = np.arange(len(members))
        available = np.ones((len(members), num_neighbors), dtype=bool)
        group_best = np.full((len(members), num_blocks), NEVER, dtype=float)
        chosen = np.empty((len(members), steps), dtype=np.int64)
        for step in range(steps):
            transformed = np.minimum(stacked, group_best[:, None, :])
            low, high = order_statistics(transformed, lower, upper)
            finite = np.isfinite(low) & np.isfinite(high) & available
            if lower == upper:
                scores = np.where(finite, low, NEVER)
            else:
                scores = np.where(
                    finite, low * (1.0 - weight) + high * weight, NEVER
                )
            local = np.argmin(scores, axis=1)
            for row in np.flatnonzero(~finite.any(axis=1)).tolist():
                candidates = np.flatnonzero(available[row])
                means = np.array(
                    [_finite_mean(stacked[row, index]) for index in candidates]
                )
                local[row] = candidates[int(np.argmin(means))]
            chosen[:, step] = local
            available[rows, local] = False
            group_best = np.minimum(stacked[rows, local], group_best)
        selected = np.take_along_axis(ids, chosen, axis=1)
        for index, row in zip(members, selected.tolist()):
            picks[index] = row
    return picks


@common_settings
@given(
    shapes=st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 6)), min_size=1, max_size=12
    ),
    subset_size=st.integers(0, 9),
    data=st.data(),
)
def test_shrinking_greedy_matches_masked_greedy(shapes, subset_size, data):
    neighbors, times = [], []
    for num_neighbors, num_blocks in shapes:
        neighbors.append(
            np.array(
                sorted(data.draw(st.sets(st.integers(0, 99), min_size=num_neighbors, max_size=num_neighbors))),
                dtype=np.int64,
            )
        )
        values = data.draw(
            st.lists(
                TIME_VALUES,
                min_size=num_neighbors * num_blocks,
                max_size=num_neighbors * num_blocks,
            )
        )
        times.append(np.array(values, dtype=float).reshape(num_neighbors, num_blocks))
    expected = reference_masked_greedy(neighbors, times, subset_size)
    assert greedy_subset_selection_batch(neighbors, times, subset_size) == expected
