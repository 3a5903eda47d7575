"""Tests for the Perigee protocol variants."""

import numpy as np
import pytest

from repro.config import default_config
from repro.core.network import P2PNetwork
from repro.core.observations import RoundObservations
from repro.core.simulator import Simulator
from repro.datasets.bitnodes import generate_population
from repro.latency.geo import GeographicLatencyModel
from repro.protocols.base import ProtocolContext
from repro.protocols.perigee.subset import PerigeeSubsetProtocol
from repro.protocols.perigee.ucb import PerigeeUCBProtocol
from repro.protocols.perigee.vanilla import PerigeeVanillaProtocol

ALL_VARIANTS = [PerigeeVanillaProtocol, PerigeeUCBProtocol, PerigeeSubsetProtocol]


@pytest.fixture
def setup():
    config = default_config(num_nodes=50, rounds=2, blocks_per_round=15)
    rng = np.random.default_rng(1)
    population = generate_population(config, rng)
    latency = GeographicLatencyModel(population.nodes, rng)
    context = ProtocolContext(config=config, nodes=population.nodes, latency=latency)
    network = P2PNetwork(config.num_nodes, config.out_degree, config.max_incoming)
    return config, context, network, rng, population, latency


def observations_preferring(network, preferred_latency=0.0, other_latency=50.0, blocks=12):
    """Build a round where each node's lowest-id outgoing neighbor is fastest."""
    senders, receivers, latencies = [], [], []
    for node_id in network.node_ids():
        for index, peer in enumerate(sorted(network.outgoing_neighbors(node_id))):
            senders.append(peer)
            receivers.append(node_id)
            latencies.append(preferred_latency if index == 0 else other_latency + index)
    times = np.repeat(np.array(latencies, dtype=float)[:, None], blocks, axis=1)
    return RoundObservations.from_directed_edges(
        network.num_nodes, np.arange(blocks), senders, receivers, times
    )


class TestCommonBehaviour:
    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_marked_adaptive(self, variant):
        assert variant().is_adaptive

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_initial_topology_fills_outgoing_budget(self, variant, setup):
        config, context, network, rng, *_ = setup
        variant().build_topology(context, network, rng)
        for node_id in network.node_ids():
            assert len(network.outgoing_neighbors(node_id)) == config.out_degree
        network.validate_invariants()

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_update_preserves_connection_limits(self, variant, setup):
        config, context, network, rng, *_ = setup
        protocol = variant()
        protocol.build_topology(context, network, rng)
        observations = observations_preferring(network)
        protocol.update(context, network, observations, rng)
        network.validate_invariants()
        for node_id in network.node_ids():
            assert len(network.outgoing_neighbors(node_id)) <= config.out_degree

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_invalid_constructor_arguments(self, variant):
        with pytest.raises(ValueError):
            variant(exploration_peers=-1)
        with pytest.raises(ValueError):
            variant(percentile=0.0)

    @pytest.mark.parametrize("variant", ALL_VARIANTS)
    def test_describe_reports_parameters(self, variant):
        info = variant().describe()
        assert info["adaptive"] is True
        assert info["percentile"] == pytest.approx(90.0)


class TestVanillaAndSubsetRetention:
    @pytest.mark.parametrize("variant", [PerigeeVanillaProtocol, PerigeeSubsetProtocol])
    def test_best_neighbor_is_retained(self, variant, setup):
        config, context, network, rng, *_ = setup
        protocol = variant()
        protocol.build_topology(context, network, rng)
        best_neighbors = {
            node_id: min(network.outgoing_neighbors(node_id))
            for node_id in network.node_ids()
        }
        observations = observations_preferring(network)
        protocol.update(context, network, observations, rng)
        retained = 0
        for node_id, best in best_neighbors.items():
            if best in network.outgoing_neighbors(node_id):
                retained += 1
        # The fastest neighbor should essentially always be retained; a couple
        # of nodes may lose it when it runs out of incoming capacity.
        assert retained >= int(0.9 * config.num_nodes)

    def test_select_retained_budget_respected(self, setup):
        config, context, network, rng, *_ = setup
        protocol = PerigeeSubsetProtocol()
        protocol.build_topology(context, network, rng)
        node_id = 0
        outgoing = set(network.outgoing_neighbors(node_id))
        neighbors = np.array(sorted(outgoing), dtype=np.int64)
        observations = observations_preferring(network)
        retained = protocol.select_retained_block(
            node_id=node_id,
            neighbors=neighbors,
            times=observations.normalized_rows(node_id, neighbors),
            retain_budget=3,
        )
        assert len(retained) <= 3
        assert retained <= outgoing


class TestUCBSpecifics:
    def test_history_accumulates_across_rounds(self, setup):
        config, context, network, rng, *_ = setup
        protocol = PerigeeUCBProtocol()
        protocol.build_topology(context, network, rng)
        observations = observations_preferring(network, blocks=5)
        protocol.update(context, network, observations, rng)
        node_history = protocol.history_for(0)
        assert node_history
        lengths_first = {k: len(v) for k, v in node_history.items()}
        # Second round adds more samples for neighbors that stayed connected.
        observations = observations_preferring(network, blocks=5)
        protocol.update(context, network, observations, rng)
        node_history = protocol.history_for(0)
        surviving = set(lengths_first) & set(node_history)
        assert any(len(node_history[k]) > lengths_first[k] for k in surviving)

    def test_dropped_neighbor_history_is_forgotten(self):
        protocol = PerigeeUCBProtocol()
        protocol._history[0][5] = [1.0, 2.0]
        protocol.on_neighbors_dropped(0, {5})
        assert 5 not in protocol.history_for(0)

    def test_reset_clears_history(self):
        protocol = PerigeeUCBProtocol()
        protocol._history[0][5] = [1.0]
        protocol.reset()
        assert protocol.history_for(0) == {}

    def test_clearly_bad_neighbor_is_evicted(self, setup):
        config, context, network, rng, *_ = setup
        protocol = PerigeeUCBProtocol(exploration_constant=5.0)
        protocol.build_topology(context, network, rng)
        node_id = 0
        outgoing = np.array(sorted(network.outgoing_neighbors(node_id)))
        bad = outgoing[-1]
        delivery = np.where(outgoing == bad, 500.0, 1.0)
        observations = RoundObservations.from_directed_edges(
            network.num_nodes,
            np.arange(40),
            outgoing,
            np.full(outgoing.size, node_id),
            np.repeat(delivery[:, None], 40, axis=1),
        )
        retained = protocol.select_retained_block(
            node_id=node_id,
            neighbors=outgoing,
            times=observations.normalized_rows(node_id, outgoing),
            retain_budget=len(outgoing),
        )
        assert bad not in retained
        assert len(retained) == len(outgoing) - 1

    def test_history_limit_bounds_memory(self):
        protocol = PerigeeUCBProtocol(history_limit=10)
        config = default_config(num_nodes=20, blocks_per_round=5)
        rng = np.random.default_rng(0)
        population = generate_population(config, rng)
        latency = GeographicLatencyModel(population.nodes, rng)
        context = ProtocolContext(config=config, nodes=population.nodes, latency=latency)
        network = P2PNetwork(config.num_nodes, config.out_degree, config.max_incoming)
        protocol.build_topology(context, network, rng)
        for _ in range(6):
            observations = observations_preferring(network, blocks=8)
            protocol.update(context, network, observations, rng)
        for node_id in network.node_ids():
            for samples in protocol.history_for(node_id).values():
                assert len(samples) <= 10

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PerigeeUCBProtocol(exploration_constant=-1.0)
        with pytest.raises(ValueError):
            PerigeeUCBProtocol(history_limit=0)


class TestLearningEndToEnd:
    @pytest.mark.parametrize("variant_name", ["perigee-subset", "perigee-vanilla"])
    def test_perigee_improves_over_its_initial_random_topology(self, variant_name):
        from repro.metrics.delay import hash_power_reach_times
        from repro.protocols.registry import make_protocol

        config = default_config(num_nodes=120, rounds=10, blocks_per_round=40, seed=3)
        rng = np.random.default_rng(3)
        population = generate_population(config, rng)
        latency = GeographicLatencyModel(population.nodes, rng)

        simulator = Simulator(
            config,
            make_protocol(variant_name),
            population=population,
            latency=latency,
            rng=np.random.default_rng(4),
        )

        def median_reach(sim):
            arrival = sim.engine.all_sources_arrival_times(sim.network)
            reach = hash_power_reach_times(arrival, population.hash_power, 0.9)
            return float(np.median(reach))

        initial = median_reach(simulator)
        simulator.run(rounds=10)
        final = median_reach(simulator)
        assert final < initial
