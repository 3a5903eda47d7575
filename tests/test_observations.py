"""Tests for round observations and the percentile scoring helpers."""

import math

import numpy as np
import pytest

from repro.core.observations import (
    NEVER,
    RoundObservations,
    batched_percentile_scores,
    percentile_score,
    percentile_scores,
)


def node_round(deliveries, num_nodes=12):
    """A round from ``(block_id, sender, receiver, timestamp)`` deliveries."""
    block_ids = sorted({block for block, *_ in deliveries})
    edges = sorted({(sender, receiver) for _, sender, receiver, _ in deliveries})
    times = np.full((len(edges), len(block_ids)), NEVER)
    for block, sender, receiver, timestamp in deliveries:
        times[edges.index((sender, receiver)), block_ids.index(block)] = timestamp
    return RoundObservations.from_directed_edges(
        num_nodes,
        block_ids,
        senders=[sender for sender, _ in edges],
        receivers=[receiver for _, receiver in edges],
        times=times,
    )


class TestObservation:
    def test_valid_tuple(self):
        observations = node_round([(1, 2, 0, 3.5)], num_nodes=3)
        assert observations.block_ids.tolist() == [1]
        assert observations.neighbors_of(0).tolist() == [2]
        assert observations.raw_times(0).tolist() == [[3.5]]

    @pytest.mark.parametrize(
        "kwargs", [{"block_ids": [0, 1]}, {"senders": [1, 2], "receivers": [0, 0]}]
    )
    def test_invalid_tuple_rejected(self, kwargs):
        # One timestamp per (directed edge, block) pair, or the round is rejected.
        arguments = {"block_ids": [0], "senders": [1], "receivers": [0]}
        arguments.update(kwargs)
        with pytest.raises(ValueError):
            RoundObservations.from_directed_edges(3, times=[[0.0]], **arguments)


class TestRecording:
    def test_record_and_introspect(self):
        observations = node_round([(10, 1, 0, 5.0), (10, 2, 0, 7.0), (11, 1, 0, 3.0)])
        assert observations.block_ids.tolist() == [10, 11]
        assert observations.num_blocks == 2
        assert observations.num_directed_edges == 2
        assert observations.neighbors_of(0).tolist() == [1, 2]
        assert observations.raw_times(0)[:, 0].tolist() == [5.0, 7.0]

    def test_record_many(self):
        observations = node_round([(5, 1, 0, 2.0), (5, 3, 0, 4.0), (5, 0, 3, 6.0)])
        assert observations.raw_times(0).tolist() == [[2.0], [4.0]]
        assert observations.raw_times(3).tolist() == [[6.0]]
        assert observations.neighbors_of(1).size == 0

    def test_iter_observations_sorted(self):
        observations = RoundObservations.from_directed_edges(
            6,
            [1, 2],
            senders=[5, 3, 4, 2],
            receivers=[0, 1, 0, 1],
            times=[[1.0, 1.5], [2.0, 2.5], [3.0, 3.5], [4.0, 4.5]],
        )
        # Rows are ordered by (receiver, sender), with CSR receiver offsets.
        assert observations.receivers.tolist() == [0, 0, 1, 1]
        assert observations.senders.tolist() == [4, 5, 2, 3]
        assert observations.times[:, 0].tolist() == [3.0, 1.0, 4.0, 2.0]
        assert observations.indptr.tolist() == [0, 2, 4, 4, 4, 4, 4]

    def test_record_rejects_invalid_ids(self):
        observations = node_round([(0, 1, 0, 1.0)], num_nodes=2)
        with pytest.raises(IndexError):
            observations.neighbors_of(-1)
        with pytest.raises(IndexError):
            observations.normalized_rows(2, np.array([0]))


class TestNormalisation:
    def test_first_arrival(self):
        observations = node_round([(1, 10, 0, 30.0), (1, 11, 0, 20.0)])
        first = observations.first_arrivals()
        assert first[0, 0] == pytest.approx(20.0)
        assert first[1, 0] == NEVER

    def test_normalized_relative_to_first_delivery(self):
        observations = node_round(
            [(1, 10, 0, 30.0), (1, 11, 0, 20.0), (2, 10, 0, 5.0), (2, 11, 0, 9.0)]
        )
        normalized = observations.normalized_rows(0, np.array([10, 11]))
        assert normalized.tolist() == [[10.0, 0.0], [0.0, 4.0]]

    def test_normalized_keeps_never_delivered_as_infinite(self):
        observations = node_round([(1, 10, 0, 30.0), (1, 11, 0, NEVER)])
        normalized = observations.normalized_rows(0, np.array([10, 11]))
        assert normalized[0, 0] == pytest.approx(0.0)
        assert math.isinf(normalized[1, 0])

    def test_normalized_drops_blocks_never_observed(self):
        observations = node_round([(1, 10, 0, NEVER), (2, 10, 0, 4.0)])
        normalized = observations.normalized_rows(0, np.array([10]))
        assert normalized.tolist() == [[0.0]]

    def test_relative_timestamps_include_missing_blocks_as_never(self):
        observations = node_round([(1, 10, 0, 0.0), (2, 11, 0, 0.0)])
        values = observations.normalized_rows(0, np.array([10]))[0]
        assert len(values) == 2
        assert sum(1 for value in values if math.isinf(value)) == 1
        assert values[np.isfinite(values)].tolist() == [0.0]
        # A neighbor without any observation delivered nothing.
        assert np.isinf(observations.normalized_rows(0, np.array([7]))).all()


def score(values, percentile=90.0):
    """:func:`percentile_score`, checked against a one-row :func:`percentile_scores`."""
    scalar = percentile_score(values, percentile)
    row = np.asarray(values, dtype=float).reshape(1, -1)
    assert percentile_scores(row, percentile)[0] == scalar
    return scalar


class TestPercentileScore:
    def test_empty_multiset_scores_infinity(self):
        assert math.isinf(score([]))

    def test_all_infinite_scores_infinity(self):
        assert math.isinf(score([NEVER, NEVER]))

    def test_simple_percentile(self):
        values = list(range(11))  # 0..10
        assert score(values, 90.0) == pytest.approx(9.0)
        assert score(values, 50.0) == pytest.approx(5.0)

    def test_infinite_tail_pushes_high_percentiles_to_infinity(self):
        values = [1.0, 2.0, 3.0, NEVER, NEVER, NEVER, NEVER, NEVER, NEVER, NEVER]
        # 90th percentile falls in the infinite mass.
        assert math.isinf(score(values, 90.0))
        # Low percentiles remain finite.
        assert score(values, 10.0) == pytest.approx(1.9, rel=1e-6)

    def test_mostly_finite_values_keep_percentile_finite(self):
        values = [float(v) for v in range(9)] + [NEVER]
        assert math.isfinite(score(values, 50.0))

    def test_invalid_percentile_rejected(self):
        for values in ([1.0], []):
            with pytest.raises(ValueError):
                percentile_score(values, 150.0)
        with pytest.raises(ValueError):
            percentile_scores(np.ones((1, 1)), 150.0)


class TestBatchedPercentileScores:
    def test_matches_per_block_calls(self):
        rng = np.random.default_rng(7)
        blocks = []
        for rows, cols in [(4, 6), (3, 6), (5, 2), (4, 6), (1, 0)]:
            block = rng.random((rows, cols)) * 100.0
            block[block > 80.0] = NEVER
            blocks.append(block)
        batched = batched_percentile_scores(blocks, 90.0)
        reference = np.concatenate(
            [percentile_scores(block, 90.0) for block in blocks]
        )
        assert np.array_equal(batched, reference)  # bit-identical, NaN-free

    def test_empty_block_list(self):
        assert batched_percentile_scores([]).shape == (0,)

    def test_rejects_non_2d_blocks(self):
        with pytest.raises(ValueError):
            batched_percentile_scores([np.zeros(3)])
