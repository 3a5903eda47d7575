"""Tests for the analytic (Dijkstra-based) propagation engine."""

import numpy as np
import pytest

from repro.core.network import P2PNetwork
from repro.core.propagation import PropagationEngine
from repro.latency.base import MatrixLatencyModel


def build_line_network(n):
    """0 - 1 - 2 - ... - (n-1)."""
    network = P2PNetwork(num_nodes=n, out_degree=4, max_incoming=10)
    for u in range(n - 1):
        assert network.connect(u, u + 1)
    return network


class TestArrivalTimes:
    def test_line_topology_arrival_times(self):
        # Three nodes in a line, 10 ms links, 5 ms validation everywhere.
        latency = MatrixLatencyModel.constant(3, 10.0)
        engine = PropagationEngine(latency, np.full(3, 5.0))
        network = build_line_network(3)
        result = engine.propagate(network, [0])
        # Node 1: 10 ms (miner does not validate its own block).
        # Node 2: 10 + 5 (validation at node 1) + 10 = 25 ms.
        assert result.arrival_times[0, 0] == pytest.approx(0.0)
        assert result.arrival_times[0, 1] == pytest.approx(10.0)
        assert result.arrival_times[0, 2] == pytest.approx(25.0)

    def test_miner_validation_not_charged(self):
        latency = MatrixLatencyModel.constant(2, 7.0)
        engine = PropagationEngine(latency, np.array([1000.0, 1.0]))
        network = build_line_network(2)
        result = engine.propagate(network, [0])
        assert result.arrival_times[0, 1] == pytest.approx(7.0)

    def test_multiple_sources(self):
        latency = MatrixLatencyModel.constant(4, 10.0)
        engine = PropagationEngine(latency, np.zeros(4))
        network = build_line_network(4)
        result = engine.propagate(network, [0, 3, 0])
        assert result.num_blocks == 3
        assert result.arrival_times[0, 3] == pytest.approx(30.0)
        assert result.arrival_times[1, 0] == pytest.approx(30.0)
        assert np.allclose(result.arrival_times[0], result.arrival_times[2])

    def test_disconnected_nodes_unreachable(self):
        latency = MatrixLatencyModel.constant(3, 10.0)
        engine = PropagationEngine(latency, np.zeros(3))
        network = P2PNetwork(num_nodes=3, out_degree=2, max_incoming=5)
        network.connect(0, 1)
        result = engine.propagate(network, [0])
        assert np.isinf(result.arrival_times[0, 2])
        assert result.reached_fraction(0) == pytest.approx(2.0 / 3.0)

    def test_shortest_path_chosen_over_direct_slow_link(self):
        # Direct link 0-2 is slow (100); the detour via node 1 costs
        # 10 + validation(2) + 10 = 22 and should win.
        matrix = np.array(
            [
                [0.0, 10.0, 100.0],
                [10.0, 0.0, 10.0],
                [100.0, 10.0, 0.0],
            ]
        )
        latency = MatrixLatencyModel(matrix)
        engine = PropagationEngine(latency, np.full(3, 2.0))
        network = P2PNetwork(num_nodes=3, out_degree=3, max_incoming=5)
        network.connect(0, 1)
        network.connect(1, 2)
        network.connect(0, 2)
        result = engine.propagate(network, [0])
        assert result.arrival_times[0, 2] == pytest.approx(22.0)

    def test_empty_sources(self):
        latency = MatrixLatencyModel.constant(3, 1.0)
        engine = PropagationEngine(latency, np.zeros(3))
        network = build_line_network(3)
        result = engine.propagate(network, [])
        assert result.num_blocks == 0

    def test_invalid_sources_rejected(self):
        latency = MatrixLatencyModel.constant(3, 1.0)
        engine = PropagationEngine(latency, np.zeros(3))
        network = build_line_network(3)
        with pytest.raises(ValueError):
            engine.propagate(network, [5])
        with pytest.raises(ValueError):
            engine.propagate(network, [[0, 1]])

    def test_mismatched_network_size_rejected(self):
        latency = MatrixLatencyModel.constant(3, 1.0)
        engine = PropagationEngine(latency, np.zeros(3))
        with pytest.raises(ValueError):
            engine.propagate(build_line_network(4), [0])

    def test_mismatched_validation_length_rejected(self):
        latency = MatrixLatencyModel.constant(3, 1.0)
        with pytest.raises(ValueError):
            PropagationEngine(latency, np.zeros(4))
        with pytest.raises(ValueError):
            PropagationEngine(latency, np.full(3, -1.0))


class TestForwardingTimes:
    def test_forwarding_times_match_arrival_plus_validation(self):
        latency = MatrixLatencyModel.constant(3, 10.0)
        engine = PropagationEngine(latency, np.full(3, 5.0))
        network = build_line_network(3)
        result = engine.propagate(network, [0])
        forwarding = engine.forwarding_times(network, result, 0)
        # Node 1 hears from miner 0 at 10 and from node 2 at 25 + 5 + 10 = 40.
        assert forwarding[1][0] == pytest.approx(10.0)
        assert forwarding[1][2] == pytest.approx(40.0)
        # Node 2 hears from node 1 at 25.
        assert forwarding[2][1] == pytest.approx(25.0)

    def test_first_arrival_equals_min_forwarding_time(self, engine, random_network):
        sources = [3, 17, 8]
        result = engine.propagate(random_network, sources)
        for block_index in range(len(sources)):
            forwarding = engine.forwarding_times(random_network, result, block_index)
            for node in range(random_network.num_nodes):
                if node == sources[block_index] or not forwarding[node]:
                    continue
                expected = min(forwarding[node].values())
                assert result.arrival_times[block_index, node] == pytest.approx(
                    expected, rel=1e-9
                )

    def test_forwarding_time_matrix_agrees_with_scalar_version(
        self, engine, random_network
    ):
        sources = [0, 5]
        result = engine.propagate(random_network, sources)
        observations = engine.round_observations(random_network, result)
        assert observations.num_directed_edges == 2 * random_network.num_edges()
        edges = zip(observations.senders.tolist(), observations.receivers.tolist())
        for row, (sender, receiver) in enumerate(edges):
            for block_index, source in enumerate(sources):
                arrival = result.arrival_times[block_index]
                scalar = engine._forward_time(arrival, source, sender, receiver)
                assert observations.times[row, block_index] == pytest.approx(scalar)

    def test_forwarding_block_index_out_of_range(self, engine, random_network):
        result = engine.propagate(random_network, [0])
        with pytest.raises(IndexError):
            engine.forwarding_times(random_network, result, 5)


class TestAllSources:
    def test_all_sources_matches_individual_propagation(self, engine, random_network):
        matrix = engine.all_sources_arrival_times(random_network)
        for source in (0, 7, 23):
            single = engine.propagate(random_network, [source])
            assert np.allclose(matrix[source], single.arrival_times[0])

    def test_diagonal_is_zero(self, engine, random_network):
        matrix = engine.all_sources_arrival_times(random_network)
        assert np.allclose(np.diag(matrix), 0.0)
