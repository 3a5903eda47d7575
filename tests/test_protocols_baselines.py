"""Tests for the baseline neighbor-selection protocols."""

import numpy as np
import pytest

from repro.config import default_config
from repro.core.network import P2PNetwork
from repro.core.observations import RoundObservations
from repro.datasets.bitnodes import generate_population
from repro.latency.geo import GeographicLatencyModel
from repro.metrics.topology import intra_continental_fraction, topology_summary
from repro.protocols.base import ProtocolContext
from repro.protocols.fully_connected import FullyConnectedProtocol
from repro.protocols.geographic import GeographicProtocol
from repro.protocols.geometric import GeometricProtocol
from repro.protocols.kademlia import KademliaProtocol
from repro.protocols.random_policy import RandomProtocol


@pytest.fixture
def context_and_network():
    config = default_config(num_nodes=60, rounds=2, blocks_per_round=10)
    rng = np.random.default_rng(0)
    population = generate_population(config, rng)
    latency = GeographicLatencyModel(population.nodes, rng)
    context = ProtocolContext(config=config, nodes=population.nodes, latency=latency)
    network = P2PNetwork(config.num_nodes, config.out_degree, config.max_incoming)
    return context, network, rng


def build(protocol, fixture):
    context, network, rng = fixture
    protocol.build_topology(context, network, rng)
    return context, network, rng


class TestRandomProtocol:
    def test_every_node_gets_full_outgoing_budget(self, context_and_network):
        context, network, _ = build(RandomProtocol(), context_and_network)
        for node_id in network.node_ids():
            assert len(network.outgoing_neighbors(node_id)) == context.config.out_degree
        network.validate_invariants()

    def test_static_by_default(self, context_and_network):
        protocol = RandomProtocol()
        context, network, rng = build(protocol, context_and_network)
        before = {n: network.outgoing_neighbors(n) for n in network.node_ids()}
        observations = RoundObservations.empty(network.num_nodes)
        protocol.update(context, network, observations, rng)
        after = {n: network.outgoing_neighbors(n) for n in network.node_ids()}
        assert before == after
        assert not protocol.is_adaptive

    def test_reshuffle_variant_changes_topology(self, context_and_network):
        protocol = RandomProtocol(reshuffle_each_round=True)
        context, network, rng = build(protocol, context_and_network)
        before = {n: network.outgoing_neighbors(n) for n in network.node_ids()}
        observations = RoundObservations.empty(network.num_nodes)
        protocol.update(context, network, observations, rng)
        after = {n: network.outgoing_neighbors(n) for n in network.node_ids()}
        assert before != after
        network.validate_invariants()

    def test_typically_connected(self, context_and_network):
        context, network, _ = build(RandomProtocol(), context_and_network)
        # With out-degree 8 on 60 nodes, a random overlay is connected with
        # overwhelming probability.
        assert topology_summary(network, context.latency)["connected"] == 1.0


class TestGeographicProtocol:
    def test_half_local_connections_raise_intra_region_fraction(
        self, context_and_network
    ):
        context, geo_network, rng = build(GeographicProtocol(), context_and_network)
        regions = context.regions()
        random_network = P2PNetwork(
            context.config.num_nodes,
            context.config.out_degree,
            context.config.max_incoming,
        )
        RandomProtocol().build_topology(context, random_network, rng)
        geo_fraction = intra_continental_fraction(geo_network, regions)
        random_fraction = intra_continental_fraction(random_network, regions)
        assert geo_fraction > random_fraction

    def test_all_outgoing_slots_used(self, context_and_network):
        context, network, _ = build(GeographicProtocol(), context_and_network)
        for node_id in network.node_ids():
            assert len(network.outgoing_neighbors(node_id)) == context.config.out_degree

    def test_local_fraction_bounds(self):
        with pytest.raises(ValueError):
            GeographicProtocol(local_fraction=1.5)
        with pytest.raises(ValueError):
            GeographicProtocol(local_fraction=-0.1)

    def test_describe_reports_fraction(self):
        assert GeographicProtocol(0.75).describe()["local_fraction"] == 0.75


class TestGeometricProtocol:
    def test_nearest_mode_picks_low_latency_neighbors(self, context_and_network):
        context, network, rng = build(GeometricProtocol(), context_and_network)
        matrix = context.latency.as_matrix()
        random_network = P2PNetwork(
            context.config.num_nodes,
            context.config.out_degree,
            context.config.max_incoming,
        )
        RandomProtocol().build_topology(context, random_network, rng)

        def mean_edge_latency(net):
            edges = net.to_numpy_edges()
            return matrix[edges[:, 0], edges[:, 1]].mean()

        assert mean_edge_latency(network) < mean_edge_latency(random_network)

    def test_threshold_mode_connects_within_threshold(self, context_and_network):
        context, network, rng = context_and_network
        protocol = GeometricProtocol(mode="threshold", threshold_ms=30.0)
        protocol.build_topology(context, network, rng)
        matrix = context.latency.as_matrix()
        # Count outgoing edges above the threshold: only the random fallback
        # fill may create them, so they are a minority.
        above = total = 0
        for node_id in network.node_ids():
            for peer in network.outgoing_neighbors(node_id):
                total += 1
                if matrix[node_id, peer] > 30.0:
                    above += 1
        assert total > 0
        assert above / total < 0.5

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            GeometricProtocol(mode="closest")
        with pytest.raises(ValueError):
            GeometricProtocol(mode="threshold", threshold_ms=0.0)


class TestKademliaProtocol:
    def test_topology_uses_all_outgoing_slots(self, context_and_network):
        context, network, _ = build(KademliaProtocol(), context_and_network)
        for node_id in network.node_ids():
            assert len(network.outgoing_neighbors(node_id)) == context.config.out_degree
        network.validate_invariants()

    def test_identifiers_are_unique(self, context_and_network):
        protocol = KademliaProtocol(id_bits=16)
        build(protocol, context_and_network)
        identifiers = protocol.identifiers
        assert identifiers is not None
        assert len(np.unique(identifiers)) == identifiers.size

    def test_bucket_index_matches_xor_distance(self, context_and_network):
        protocol = KademliaProtocol(id_bits=16)
        build(protocol, context_and_network)
        identifiers = protocol.identifiers
        a, b = 0, 1
        expected = (int(identifiers[a]) ^ int(identifiers[b])).bit_length() - 1
        assert protocol.bucket_index(a, b) == expected

    def test_id_space_too_small_rejected(self, context_and_network):
        context, network, rng = context_and_network
        protocol = KademliaProtocol(id_bits=5)  # 32 ids for 60 nodes
        with pytest.raises(ValueError):
            protocol.build_topology(context, network, rng)

    def test_reset_clears_identifiers(self, context_and_network):
        protocol = KademliaProtocol()
        build(protocol, context_and_network)
        protocol.reset()
        assert protocol.identifiers is None

    def test_invalid_id_bits_rejected(self):
        with pytest.raises(ValueError):
            KademliaProtocol(id_bits=0)


class TestFullyConnectedProtocol:
    def test_clique_topology(self, context_and_network):
        context, network, _ = build(FullyConnectedProtocol(), context_and_network)
        n = context.config.num_nodes
        assert network.num_edges() == n * (n - 1) // 2
        assert topology_summary(network, context.latency)["connected"] == 1.0

    def test_describe_mentions_lower_bound(self):
        assert "lower bound" in str(FullyConnectedProtocol().describe()["note"])
