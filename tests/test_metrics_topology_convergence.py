"""Tests for topology diagnostics and convergence reports."""

import numpy as np
import pytest

from repro.core.network import P2PNetwork
from repro.latency.base import MatrixLatencyModel
from repro.metrics.convergence import ConvergenceReport, convergence_report
from repro.metrics.topology import (
    edge_latency_histogram,
    edge_latency_values,
    intra_continental_fraction,
    topology_summary,
)
from tests.conftest import adjacency


@pytest.fixture
def small_network():
    network = P2PNetwork(num_nodes=6, out_degree=3, max_incoming=5)
    network.connect(0, 1)
    network.connect(1, 2)
    network.connect(2, 3)
    network.connect(3, 4)
    network.connect(4, 5)
    network.connect(5, 0)
    return network


@pytest.fixture
def latency():
    matrix = np.arange(36, dtype=float).reshape(6, 6)
    matrix = (matrix + matrix.T) / 2
    np.fill_diagonal(matrix, 0.0)
    return MatrixLatencyModel(matrix)


class TestEdgeLatencyValues:
    def test_values_match_edges(self, small_network, latency):
        values = edge_latency_values(small_network, latency)
        assert values.shape == (6,)
        matrix = latency.as_matrix()
        expected = sorted(
            matrix[u, v] for u, v in small_network.edge_list()
        )
        assert sorted(values.tolist()) == pytest.approx(expected)

    def test_empty_network(self, latency):
        network = P2PNetwork(num_nodes=6, out_degree=2, max_incoming=3)
        assert edge_latency_values(network, latency).size == 0


class TestEdgeLatencyHistogram:
    def test_counts_sum_to_edge_count(self, small_network, latency):
        histogram = edge_latency_histogram(small_network, latency, "test", num_bins=5)
        assert histogram.num_edges == small_network.num_edges()
        assert histogram.bin_edges_ms.shape == (6,)
        assert np.isfinite(histogram.mean_ms)

    def test_empty_network_histogram(self, latency):
        network = P2PNetwork(num_nodes=6, out_degree=2, max_incoming=3)
        histogram = edge_latency_histogram(network, latency, "empty")
        assert histogram.num_edges == 0
        assert np.isnan(histogram.mean_ms)

    def test_invalid_bins_rejected(self, small_network, latency):
        with pytest.raises(ValueError):
            edge_latency_histogram(small_network, latency, "x", num_bins=0)

    def test_degenerate_identical_latencies(self, small_network):
        uniform = MatrixLatencyModel.constant(6, 42.0)
        histogram = edge_latency_histogram(
            small_network, uniform, "uniform", num_bins=4
        )
        # All values sit on the top bin edge; nothing may fall off the range.
        assert histogram.num_edges == small_network.num_edges()
        assert histogram.mean_ms == pytest.approx(42.0)
        assert histogram.median_ms == pytest.approx(42.0)

    def test_zero_max_latency_clamped(self, small_network, latency):
        # A non-positive range request must not crash np.histogram.
        histogram = edge_latency_histogram(
            small_network, latency, "clamped", num_bins=3, max_latency_ms=0.0
        )
        assert histogram.bin_edges_ms[-1] > 0.0
        assert histogram.counts.shape == (3,)

    def test_low_mode_fraction_uses_regional_threshold(self, small_network):
        cheap = MatrixLatencyModel.constant(6, 10.0)
        expensive = MatrixLatencyModel.constant(6, 300.0)
        assert edge_latency_histogram(
            small_network, cheap, "cheap"
        ).low_mode_fraction == pytest.approx(1.0)
        assert edge_latency_histogram(
            small_network, expensive, "expensive"
        ).low_mode_fraction == pytest.approx(0.0)


class TestStructuralSummaries:
    def test_intra_continental_fraction(self, small_network):
        regions = ["europe", "europe", "asia", "asia", "europe", "europe"]
        fraction = intra_continental_fraction(small_network, regions)
        # Edges: (0,1)E-E, (1,2)E-A, (2,3)A-A, (3,4)A-E, (4,5)E-E, (0,5)E-E.
        assert fraction == pytest.approx(4 / 6)

    def test_intra_continental_fraction_empty_network(self):
        network = P2PNetwork(num_nodes=4, out_degree=2, max_incoming=3)
        assert np.isnan(intra_continental_fraction(network, ["europe"] * 4))

    def test_topology_summary_keys(self, small_network, latency):
        summary = topology_summary(
            small_network, latency, regions=["europe"] * 6
        )
        assert summary["num_edges"] == 6
        assert summary["connected"] == 1.0
        assert summary["mean_degree"] == pytest.approx(2.0)
        assert "intra_continental_fraction" in summary
        assert "low_latency_edge_fraction" in summary

    def test_topology_summary_empty_network(self, latency):
        network = P2PNetwork(num_nodes=6, out_degree=2, max_incoming=3)
        summary = topology_summary(network, latency)
        assert summary["num_edges"] == 0.0
        assert summary["connected"] == 0.0
        assert summary["mean_degree"] == 0.0
        assert summary["max_degree"] == 0.0
        assert np.isnan(summary["mean_edge_latency_ms"])
        assert np.isnan(summary["median_edge_latency_ms"])
        assert np.isnan(summary["low_latency_edge_fraction"])

    def test_topology_summary_minimal_pair(self):
        network = P2PNetwork(num_nodes=2, out_degree=1, max_incoming=1)
        network.connect(0, 1)
        summary = topology_summary(network, MatrixLatencyModel.constant(2, 5.0))
        assert summary["num_edges"] == 1.0
        assert summary["connected"] == 1.0
        assert summary["mean_degree"] == pytest.approx(1.0)
        assert summary["mean_edge_latency_ms"] == pytest.approx(5.0)

    def test_topology_summary_detects_disconnection(self, latency):
        network = P2PNetwork(num_nodes=6, out_degree=2, max_incoming=3)
        network.connect(0, 1)
        network.connect(2, 3)  # two components, nodes 4/5 isolated
        summary = topology_summary(network, latency)
        assert summary["num_edges"] == 2.0
        assert summary["connected"] == 0.0

    def test_topology_summary_degrees_match_network(self, small_network, latency):
        # The bincount and connected_components fast paths must agree with
        # per-node neighbor lists and a breadth-first search over them.
        summary = topology_summary(small_network, latency)
        neighbors = adjacency(small_network)
        degrees = [len(peers) for peers in neighbors]
        reached = {0}
        stack = [0]
        while stack:
            for peer in neighbors[stack.pop()]:
                if peer not in reached:
                    reached.add(peer)
                    stack.append(peer)
        assert summary["mean_degree"] == pytest.approx(np.mean(degrees))
        assert summary["max_degree"] == max(degrees)
        assert summary["min_degree"] == min(degrees)
        assert summary["connected"] == float(len(reached) == len(neighbors))
        assert summary["num_edges"] == float(small_network.num_edges())


class TestConvergenceReport:
    def test_report_from_trajectory(self):
        report = convergence_report([(0, 100.0), (5, 80.0), (10, 70.0)])
        assert report.num_points == 3
        assert report.initial_ms == pytest.approx(100.0)
        assert report.final_ms == pytest.approx(70.0)
        assert report.total_improvement() == pytest.approx(0.3)
        assert report.is_improving()
        assert report.is_improving(tolerance=0.2)
        assert not report.is_improving(tolerance=0.5)

    def test_rounds_to_within(self):
        report = convergence_report([(0, 100.0), (1, 72.0), (2, 71.0), (3, 70.0)])
        assert report.rounds_to_within(0.05) == 1
        assert report.rounds_to_within(0.001) == 3

    def test_empty_and_singleton_reports(self):
        empty = convergence_report([])
        assert empty.num_points == 0
        assert np.isnan(empty.total_improvement())
        single = convergence_report([(0, 50.0)])
        assert not single.is_improving()
        assert single.rounds_to_within() is None

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            ConvergenceReport(rounds=(0, 1), values_ms=(1.0,))

    def test_rounds_to_within_non_monotone_series(self):
        # The paper's p50 series need not be monotone: settling means the
        # *first* round within the band of the final value, even when the
        # trajectory later leaves and re-enters it.
        report = convergence_report(
            [(0, 100.0), (1, 69.0), (2, 90.0), (3, 70.0)]
        )
        assert report.rounds_to_within(0.05) == 1
        assert report.rounds_to_within(0.0) == 3

    def test_rounds_to_within_unsettleable_series(self):
        # A non-positive or non-finite final value has no relative band.
        assert convergence_report(
            [(0, 100.0), (1, 0.0)]
        ).rounds_to_within(0.05) is None
        assert convergence_report(
            [(0, 100.0), (1, float("nan"))]
        ).rounds_to_within(0.05) is None
        assert convergence_report(
            [(0, float("inf")), (1, 80.0), (2, 80.0)]
        ).rounds_to_within(0.05) == 1

    def test_is_improving_tolerance_boundaries(self):
        report = convergence_report([(0, 100.0), (1, 80.0)])
        # Exactly on the boundary counts as improving (<=).
        assert report.is_improving(tolerance=0.2)
        assert not report.is_improving(tolerance=0.2000001)
        flat = convergence_report([(0, 50.0), (1, 50.0)])
        assert flat.is_improving(tolerance=0.0)
        assert not flat.is_improving(tolerance=0.01)
