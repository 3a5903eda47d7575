"""Tests for ``P2PNetwork.purge_node``, the node-departure primitive."""

from repro.core.network import P2PNetwork


class TestPurgeNode:
    def test_purge_removes_all_connections(self):
        network = P2PNetwork(6, out_degree=3, max_incoming=5)
        network.connect(0, 1)
        network.connect(2, 0)
        network.connect(0, 3)
        removed = network.purge_node(0)
        assert removed == 3
        assert network.degree(0) == 0
        assert not network.has_edge(0, 1)
        assert not network.has_edge(2, 0)
        network.validate_invariants()

    def test_purge_isolated_node_is_noop(self):
        network = P2PNetwork(4, out_degree=2, max_incoming=3)
        assert network.purge_node(2) == 0

    def test_purge_frees_capacity_for_new_connections(self):
        network = P2PNetwork(5, out_degree=1, max_incoming=1)
        network.connect(0, 1)
        network.purge_node(1)
        assert network.connect(0, 2)

