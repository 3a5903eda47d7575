"""Tests for the Perigee scoring functions (Vanilla, UCB, Subset)."""

import math

import numpy as np
import pytest

from repro.core.observations import NEVER, RoundObservations, percentile_scores
from repro.protocols.scoring import (
    ConfidenceInterval,
    confidence_interval,
    greedy_subset_selection_block,
    ucb_eviction_candidate,
    ucb_scores,
)


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
        interval = confidence_interval([10.0] * 50)
        assert interval.lower <= interval.estimate <= interval.upper
        assert interval.samples == 50

    def test_more_samples_tighten_the_interval(self):
        few = confidence_interval(list(range(5)))
        many = confidence_interval(list(range(500)))
        assert (many.upper - many.lower) < (few.upper - few.lower)

    def test_empty_history_gives_infinite_interval(self):
        interval = confidence_interval([])
        assert math.isinf(interval.estimate)
        assert interval.samples == 0

    def test_single_sample_has_wide_interval(self):
        single = confidence_interval([10.0])
        double = confidence_interval([10.0, 10.0])
        assert (single.upper - single.lower) > (double.upper - double.lower)

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(estimate=1.0, lower=5.0, upper=2.0, samples=3)
        with pytest.raises(ValueError):
            ConfidenceInterval(estimate=1.0, lower=0.0, upper=2.0, samples=-1)

    def test_ucb_scores_maps_every_neighbor(self):
        intervals = ucb_scores({1: [1.0, 2.0], 2: []})
        assert set(intervals) == {1, 2}
        assert math.isinf(intervals[2].estimate)


class TestUCBEviction:
    def test_no_eviction_when_intervals_overlap(self):
        intervals = {
            1: ConfidenceInterval(estimate=10.0, lower=5.0, upper=15.0, samples=10),
            2: ConfidenceInterval(estimate=12.0, lower=7.0, upper=17.0, samples=10),
        }
        assert ucb_eviction_candidate(intervals) is None

    def test_eviction_of_clearly_worst_neighbor(self):
        intervals = {
            1: ConfidenceInterval(estimate=10.0, lower=8.0, upper=12.0, samples=50),
            2: ConfidenceInterval(estimate=100.0, lower=95.0, upper=105.0, samples=50),
            3: ConfidenceInterval(estimate=11.0, lower=9.0, upper=13.0, samples=50),
        }
        assert ucb_eviction_candidate(intervals) == 2

    def test_single_neighbor_never_evicted(self):
        intervals = {
            1: ConfidenceInterval(estimate=10.0, lower=8.0, upper=12.0, samples=50)
        }
        assert ucb_eviction_candidate(intervals) is None


class TestGreedySubsetSelection:
    def test_first_pick_is_best_individual_neighbor(self):
        data = {block: {1: 5.0, 2: 0.0, 3: 20.0} for block in range(10)}
        selected = greedy_subset_selection_block(*node_block(data, [1, 2, 3]), 1)
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
        selected = greedy_subset_selection_block(*node_block(data, [1, 2, 3]), 2)
        assert selected[0] in (1, 3)
        assert set(selected) == {1, 3}

    def test_selection_size_respected(self):
        data = {block: {n: float(n) for n in range(1, 7)} for block in range(5)}
        selected = greedy_subset_selection_block(*node_block(data, range(1, 7)), 4)
        assert len(selected) == 4
        assert len(set(selected)) == 4

    def test_zero_budget_returns_empty(self):
        assert greedy_subset_selection_block(*node_block({1: {1: 0.0}}, [1]), 0) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            greedy_subset_selection_block(*node_block({1: {1: 0.0}}, [1]), -1)

    def test_all_infinite_neighbors_still_fill_budget(self):
        # Neighbor 3 delivers every block, so no block is dropped, but the
        # two candidates never deliver: the finite-mean fallback fills up.
        data = {block: {1: NEVER, 2: NEVER, 3: 0.0} for block in range(3)}
        selected = greedy_subset_selection_block(*node_block(data, [1, 2]), 2)
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
        best_pair = greedy_subset_selection_block(*node_block(data, [1, 2, 3]), 2)
        _, chosen = node_block(data, best_pair)
        _, alternative = node_block(data, [1, 3])
        assert group_score(chosen) <= group_score(alternative)
