"""Tests for the Perigee scoring functions (Vanilla, UCB, Subset)."""

import math

import numpy as np
import pytest

from repro.core.observations import NEVER, RoundObservations, percentile_scores
from repro.protocols.perigee.ucb import PerigeeUCBProtocol
from repro.protocols.scoring import confidence_bounds, greedy_subset_selection_batch


def node_block(data, neighbors):
    """Node 0's normalised ``(neighbors, times)`` block for one round.

    ``data`` maps ``block_id -> {neighbor: timestamp}``; the round is built
    as directed edges into node 0 and normalised by Equation 2.
    """
    block_ids = sorted(data)
    senders = sorted({peer for deliveries in data.values() for peer in deliveries})
    times = np.array(
        [[data[block].get(peer, NEVER) for block in block_ids] for peer in senders],
        dtype=float,
    ).reshape(len(senders), len(block_ids))
    observations = RoundObservations.from_directed_edges(
        max(senders + list(neighbors)) + 1,
        block_ids,
        senders=senders,
        receivers=[0] * len(senders),
        times=times,
    )
    neighbors = np.array(sorted(neighbors), dtype=np.int64)
    return neighbors, observations.normalized_rows(0, neighbors)


def greedy(neighbors, times, subset_size):
    """Subset's greedy picks for one node, in pick order."""
    return greedy_subset_selection_batch([neighbors], [times], subset_size)[0]


def bounds(*histories):
    """``(estimate, lower, upper)`` arrays for the given sample histories."""
    return confidence_bounds([np.asarray(h, dtype=float) for h in histories])


def ucb_retained(rows, exploration_constant, retain_budget=8):
    """Node 0's retained set after one UCB round over crafted timestamp rows.

    ``rows`` maps each neighbor to its per-block timestamps.
    """
    protocol = PerigeeUCBProtocol(exploration_constant=exploration_constant)
    neighbors = np.array(sorted(rows), dtype=np.int64)
    times = np.array([rows[peer] for peer in sorted(rows)], dtype=float)
    return protocol.select_retained_block(0, neighbors, times, retain_budget)


def group_score(times, percentile=90.0):
    """SubsetScoring's objective: the percentile of the per-block best delivery."""
    best = np.min(times, axis=0, initial=NEVER)
    return percentile_scores(best[None, :], percentile)[0]


class TestVanillaScores:
    def test_lower_latency_neighbor_scores_better(self):
        data = {
            block: {1: 0.0, 2: 50.0}
            for block in range(10)
        }
        _, times = node_block(data, [1, 2])
        scores = percentile_scores(times)
        assert scores[0] < scores[1]
        assert scores[0] == pytest.approx(0.0)
        assert scores[1] == pytest.approx(50.0)

    def test_unobserved_neighbor_scores_infinity(self):
        _, times = node_block({1: {1: 0.0}}, [1, 9])
        scores = percentile_scores(times)
        assert math.isinf(scores[1])

    def test_neighbor_missing_many_blocks_penalised(self):
        data = {block: {1: 1.0} for block in range(10)}
        for block in range(3):
            data[block][2] = 0.5
        _, times = node_block(data, [1, 2])
        scores = percentile_scores(times)
        # Neighbor 2 only delivered 3 of 10 blocks; the 90th percentile of its
        # multiset (with 7 "never" entries) is infinite.
        assert math.isinf(scores[1])
        assert math.isfinite(scores[0])


class TestConfidenceIntervals:
    def test_interval_brackets_estimate(self):
        estimate, lower, upper = bounds([10.0] * 50)
        assert lower[0] <= estimate[0] <= upper[0]
        assert estimate[0] == 10.0

    def test_more_samples_tighten_the_interval(self):
        _, lower, upper = bounds(list(range(5)), list(range(500)))
        assert (upper[1] - lower[1]) < (upper[0] - lower[0])

    def test_empty_history_gives_infinite_interval(self):
        estimate, lower, upper = bounds([])
        assert math.isinf(estimate[0])
        assert math.isinf(lower[0]) and math.isinf(upper[0])

    def test_single_sample_has_wide_interval(self):
        _, lower, upper = bounds([10.0], [10.0, 10.0])
        assert (upper[0] - lower[0]) > (upper[1] - lower[1])

    def test_ucb_scores_maps_every_neighbor(self):
        estimate, lower, upper = bounds([1.0, 2.0], [])
        assert estimate.shape == lower.shape == upper.shape == (2,)
        assert math.isfinite(estimate[0])
        assert math.isinf(estimate[1])


class TestUCBEviction:
    # Ten blocks with exploration constant 10 give a half width of ~3.4.
    def test_no_eviction_when_intervals_overlap(self):
        rows = {1: [10.0] * 10, 2: [12.0] * 10}
        assert ucb_retained(rows, exploration_constant=10.0) == {1, 2}

    def test_eviction_of_clearly_worst_neighbor(self):
        rows = {1: [10.0] * 10, 2: [100.0] * 10, 3: [11.0] * 10}
        assert ucb_retained(rows, exploration_constant=10.0) == {1, 3}

    def test_single_neighbor_never_evicted(self):
        assert ucb_retained({1: [100.0] * 10}, exploration_constant=0.0) == {1}


class TestGreedySubsetSelection:
    def test_first_pick_is_best_individual_neighbor(self):
        data = {block: {1: 5.0, 2: 0.0, 3: 20.0} for block in range(10)}
        selected = greedy(*node_block(data, [1, 2, 3]), 1)
        assert selected == [2]

    def test_complementary_neighbor_preferred_over_redundant(self):
        # Neighbor 1 is fastest for blocks 0-4, neighbor 2 is almost as fast
        # for the same blocks (redundant), neighbor 3 is the only fast
        # provider of blocks 5-9.  After picking 1, the greedy rule must pick
        # 3, not 2.
        data = {}
        for block in range(5):
            data[block] = {1: 0.0, 2: 1.0, 3: 80.0}
        for block in range(5, 10):
            data[block] = {1: 90.0, 2: 95.0, 3: 0.0}
        selected = greedy(*node_block(data, [1, 2, 3]), 2)
        assert selected[0] in (1, 3)
        assert set(selected) == {1, 3}

    def test_selection_size_respected(self):
        data = {block: {n: float(n) for n in range(1, 7)} for block in range(5)}
        selected = greedy(*node_block(data, range(1, 7)), 4)
        assert len(selected) == 4
        assert len(set(selected)) == 4

    def test_zero_budget_returns_empty(self):
        assert greedy(*node_block({1: {1: 0.0}}, [1]), 0) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            greedy(*node_block({1: {1: 0.0}}, [1]), -1)

    def test_all_infinite_neighbors_still_fill_budget(self):
        # Neighbor 3 delivers every block, so no block is dropped, but the
        # two candidates never deliver: the finite-mean fallback fills up.
        data = {block: {1: NEVER, 2: NEVER, 3: 0.0} for block in range(3)}
        selected = greedy(*node_block(data, [1, 2]), 2)
        assert set(selected) == {1, 2}


class TestGroupScore:
    def test_group_score_uses_best_delivery_per_block(self):
        data = {
            0: {1: 10.0, 2: 0.0},
            1: {1: 0.0, 2: 10.0},
        }
        _, pair = node_block(data, [1, 2])
        _, single = node_block(data, [1])
        assert group_score(pair, percentile=50.0) == pytest.approx(0.0)
        assert group_score(single, percentile=50.0) == pytest.approx(5.0)

    def test_empty_group_scores_infinity(self):
        _, times = node_block({0: {1: 1.0}}, [])
        assert math.isinf(group_score(times))

    def test_greedy_selection_improves_group_score(self):
        data = {}
        for block in range(6):
            data[block] = {1: 0.0, 2: 40.0, 3: 50.0}
        for block in range(6, 12):
            data[block] = {1: 60.0, 2: 0.0, 3: 55.0}
        best_pair = greedy(*node_block(data, [1, 2, 3]), 2)
        _, chosen = node_block(data, best_pair)
        _, alternative = node_block(data, [1, 3])
        assert group_score(chosen) <= group_score(alternative)
