"""Tests for the p2p overlay graph and its connection-limit semantics."""

from collections import Counter

import numpy as np
import pytest

from repro.core.network import ConnectionError_, P2PNetwork
from repro.latency.base import MatrixLatencyModel
from repro.metrics.topology import topology_summary
from tests.conftest import adjacency


@pytest.fixture
def network():
    return P2PNetwork(num_nodes=10, out_degree=3, max_incoming=4)


@pytest.fixture
def rng():
    return np.random.default_rng(2)


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_nodes": 1},
            {"num_nodes": 10, "out_degree": 0},
            {"num_nodes": 10, "max_incoming": 0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            P2PNetwork(**{"out_degree": 8, "max_incoming": 20, **kwargs})

    def test_empty_network_properties(self, network):
        assert network.num_nodes == 10
        assert len(network) == 10
        assert network.num_edges() == 0
        assert adjacency(network)[0] == []


class TestConnect:
    def test_connect_establishes_bidirectional_communication(self, network):
        assert network.connect(0, 1)
        assert network.has_edge(0, 1)
        assert network.has_edge(1, 0)
        assert 1 in network.outgoing_neighbors(0)
        assert network.incoming_slots_free(1) == 3
        assert adjacency(network)[1] == [0]

    def test_duplicate_connection_rejected(self, network):
        assert network.connect(0, 1)
        assert not network.connect(0, 1)
        # reverse direction also counts as already connected
        assert not network.connect(1, 0)

    def test_self_connection_raises(self, network):
        with pytest.raises(ConnectionError_):
            network.connect(3, 3)

    def test_out_degree_limit_enforced(self, network):
        for target in (1, 2, 3):
            assert network.connect(0, target)
        assert not network.connect(0, 4)
        assert network.outgoing_slots_free(0) == 0

    def test_incoming_limit_declines_connections(self, network):
        # Node 9 accepts at most 4 incoming connections.
        for initiator in (0, 1, 2, 3):
            assert network.connect(initiator, 9)
        assert not network.can_accept_incoming(9)
        assert not network.connect(4, 9)

    def test_out_of_range_node_raises(self, network):
        with pytest.raises(IndexError):
            network.connect(0, 99)
        with pytest.raises(IndexError):
            network.outgoing_neighbors(-1)


class TestDisconnect:
    def test_disconnect_removes_edge(self, network):
        network.connect(0, 1)
        assert network.disconnect(0, 1)
        assert not network.has_edge(0, 1)
        assert network.incoming_slots_free(1) == 4

    def test_disconnect_only_affects_initiated_connections(self, network):
        network.connect(0, 1)
        # Node 1 did not initiate, so it cannot drop the connection.
        assert not network.disconnect(1, 0)
        assert network.has_edge(0, 1)

    def test_disconnect_all_outgoing(self, network):
        for target in (1, 2, 3):
            network.connect(0, target)
        network.disconnect_all_outgoing(0)
        assert network.outgoing_neighbors(0) == frozenset()
        assert network.incoming_slots_free(1) == 4


class TestReplaceOutgoing:
    def test_replace_keeps_requested_and_fills_random(self, network, rng):
        for target in (1, 2, 3):
            network.connect(0, target)
        result = network.replace_outgoing(0, keep={1, 2}, candidates_rng=rng, num_random=1)
        assert {1, 2} <= result
        assert len(result) == 3
        assert 3 not in result or 3 in result  # 3 may reappear via random draw
        network.validate_invariants()

    def test_replace_rejects_budget_overflow(self, network, rng):
        with pytest.raises(ConnectionError_):
            network.replace_outgoing(0, keep={1, 2, 3}, candidates_rng=rng, num_random=1)

    def test_replace_rejects_self_in_keep(self, network, rng):
        with pytest.raises(ConnectionError_):
            network.replace_outgoing(0, keep={0}, candidates_rng=rng)

    def test_fill_random_outgoing_fills_all_slots(self, network, rng):
        result = network.fill_random_outgoing(5, rng)
        assert len(result) == 3
        network.validate_invariants()


class TestViews:
    def test_edge_list_unique_and_sorted(self, network):
        network.connect(0, 1)
        network.connect(2, 1)
        network.connect(1, 3)
        edges = network.edge_list()
        assert edges == sorted(edges)
        assert (0, 1) in edges
        assert (1, 2) in edges
        assert (1, 3) in edges
        assert network.num_edges() == 3

    def test_adjacency_lists_are_symmetric(self, network, rng):
        for node in range(10):
            network.fill_random_outgoing(node, rng)
        neighbors = adjacency(network)
        for u, peers in enumerate(neighbors):
            for v in peers:
                assert u in neighbors[v]
            # The edge array holds every connection the node initiated.
            assert network.outgoing_neighbors(u) <= set(peers)

    def test_to_numpy_edges_shape(self, network):
        assert network.to_numpy_edges().shape == (0, 2)
        network.connect(0, 1)
        assert network.to_numpy_edges().shape == (1, 2)

    def test_copy_is_independent(self, network):
        network.connect(0, 1)
        clone = network.copy()
        clone.disconnect(0, 1)
        assert network.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_degree_histogram_counts_nodes(self, network):
        network.connect(0, 1)
        histogram = Counter(len(peers) for peers in adjacency(network))
        assert histogram[1] == 2
        assert histogram[0] == 8

    def test_is_connected(self, rng):
        network = P2PNetwork(num_nodes=6, out_degree=2, max_incoming=6)
        latency = MatrixLatencyModel(np.ones((6, 6)) - np.eye(6))
        assert topology_summary(network, latency)["connected"] == 0.0
        # a path 0-1-2-3-4-5
        for u in range(5):
            network.connect(u, u + 1)
        assert topology_summary(network, latency)["connected"] == 1.0

    def test_make_fully_connected(self):
        network = P2PNetwork(num_nodes=5, out_degree=2, max_incoming=2)
        network.make_fully_connected()
        assert network.num_edges() == 10
        assert all(len(peers) == 4 for peers in adjacency(network))
        # Each pair is stored once, initiated by the lower id.
        assert network.outgoing_neighbors(0) == frozenset({1, 2, 3, 4})
        assert network.outgoing_neighbors(4) == frozenset()
        assert network.incoming_slots_free(4) == 0
        network.validate_invariants()


class TestInvariants:
    def test_invariants_hold_after_random_operations(self, rng):
        network = P2PNetwork(num_nodes=25, out_degree=4, max_incoming=6)
        for _ in range(300):
            a = int(rng.integers(0, 25))
            b = int(rng.integers(0, 25))
            if a == b:
                continue
            if rng.random() < 0.6:
                network.connect(a, b)
            else:
                network.disconnect(a, b)
        network.validate_invariants()
        for node in range(25):
            assert len(network.outgoing_neighbors(node)) <= 4
            assert network.incoming_slots_free(node) >= 0
