"""Tests for the round-based simulation driver."""

import numpy as np
import pytest

from repro.config import default_config
from repro.core.simulator import Simulator
from repro.datasets.bitnodes import generate_population
from repro.latency.geo import GeographicLatencyModel
from repro.latency.metric_space import MetricSpaceLatencyModel
from repro.protocols.registry import make_protocol
from repro.telemetry.recorder import MetricsRecorder, use_recorder
from tests.conftest import adjacency


@pytest.fixture
def config():
    return default_config(num_nodes=40, rounds=3, blocks_per_round=10, seed=5)


@pytest.fixture
def simulator(config):
    return Simulator(config, make_protocol("perigee-subset"))


class TestConstruction:
    def test_default_builders(self, config):
        simulator = Simulator(config, make_protocol("random"))
        assert simulator.population is not None
        assert simulator.latency_model.num_nodes == config.num_nodes
        assert simulator.network.num_nodes == config.num_nodes

    def test_metric_latency_model_selected_from_config(self):
        config = default_config(
            num_nodes=30, latency_model="metric", metric_dimension=3
        )
        simulator = Simulator(config, make_protocol("random"))
        assert isinstance(simulator.latency_model, MetricSpaceLatencyModel)
        assert simulator.latency_model.dimension == 3

    def test_initial_topology_built_by_protocol(self, simulator, config):
        for node_id in simulator.network.node_ids():
            assert (
                len(simulator.network.outgoing_neighbors(node_id))
                == config.out_degree
            )

    def test_population_size_mismatch_rejected(self, config):
        rng = np.random.default_rng(0)
        other = generate_population(default_config(num_nodes=20), rng)
        with pytest.raises(ValueError):
            Simulator(config, make_protocol("random"), population=other)

    def test_latency_size_mismatch_rejected(self, config):
        rng = np.random.default_rng(0)
        other_population = generate_population(default_config(num_nodes=20), rng)
        latency = GeographicLatencyModel(other_population.nodes, rng)
        with pytest.raises(ValueError):
            Simulator(config, make_protocol("random"), latency=latency)


class TestMining:
    def test_mine_blocks_count_and_ids(self, simulator):
        blocks = simulator.mine_blocks()
        assert len(blocks) == simulator.config.blocks_per_round
        ids = [block.block_id for block in blocks]
        assert ids == sorted(ids)
        assert len(set(ids)) == len(ids)
        more = simulator.mine_blocks(5)
        assert min(b.block_id for b in more) > max(ids)

    def test_mine_blocks_respects_hash_power(self):
        config = default_config(
            num_nodes=50, hash_power_distribution="concentrated", seed=2
        )
        simulator = Simulator(config, make_protocol("random"))
        miners = set(simulator.population.high_power_miners)
        blocks = simulator.mine_blocks(600)
        mined_by_pool = sum(1 for block in blocks if block.miner in miners)
        # The pool holds 90% of the hash power, so it should mine the vast
        # majority of blocks.
        assert mined_by_pool / len(blocks) > 0.75

    def test_mine_blocks_rejects_non_positive_count(self, simulator):
        with pytest.raises(ValueError):
            simulator.mine_blocks(0)


class TestObservationsCollection:
    def test_observations_cover_all_neighbors(self, simulator):
        blocks = simulator.mine_blocks(4)
        result = simulator.propagate_blocks(blocks)
        observations = simulator.collect_observations(blocks, result)
        assert observations.num_nodes == simulator.config.num_nodes
        assert observations.block_ids.tolist() == [b.block_id for b in blocks]
        for node_id in range(simulator.config.num_nodes):
            neighbors = adjacency(simulator.network)[node_id]
            assert observations.neighbors_of(node_id).tolist() == neighbors

    def test_observation_timestamps_not_negative(self, simulator):
        blocks = simulator.mine_blocks(3)
        result = simulator.propagate_blocks(blocks)
        observations = simulator.collect_observations(blocks, result)
        assert observations.times.shape == (
            observations.num_directed_edges,
            len(blocks),
        )
        assert (observations.times >= 0.0).all()


class TestRounds:
    def test_run_round_advances_one_round(self, simulator):
        assert simulator.run_round() is None
        assert simulator.rounds_completed == 1
        # The round mined exactly one round's worth of blocks.
        (next_block,) = simulator.mine_blocks(1)
        assert next_block.block_id == simulator.config.blocks_per_round

    def test_run_round_without_evaluation(self, simulator):
        recorder = MetricsRecorder(trace=True)
        with use_recorder(recorder):
            simulator.run(rounds=2)
        assert recorder.counter("round.count") == 2
        names = {event.name for event in recorder.trace}
        assert "round.update" in names
        assert not any(name.startswith("evaluate") for name in names)
        assert "round.evaluate" not in names

    def test_run_advances_to_the_given_round_count(self, simulator):
        assert simulator.run(rounds=2) is None
        assert simulator.rounds_completed == 2
        simulator.run(rounds=3)
        assert simulator.rounds_completed == 3
        simulator.run(rounds=3)
        assert simulator.rounds_completed == 3
        assert simulator.evaluate().shape == (simulator.config.num_nodes,)

    def test_run_rejects_non_positive_rounds(self, simulator):
        with pytest.raises(ValueError):
            simulator.run(rounds=0)

    def test_static_protocol_topology_unchanged_by_rounds(self, config):
        simulator = Simulator(config, make_protocol("random"))
        before = {
            node: simulator.network.outgoing_neighbors(node)
            for node in simulator.network.node_ids()
        }
        simulator.run(rounds=2)
        after = {
            node: simulator.network.outgoing_neighbors(node)
            for node in simulator.network.node_ids()
        }
        assert before == after

    def test_adaptive_protocol_changes_topology(self, simulator):
        before = {
            node: simulator.network.outgoing_neighbors(node)
            for node in simulator.network.node_ids()
        }
        simulator.run(rounds=2)
        after = {
            node: simulator.network.outgoing_neighbors(node)
            for node in simulator.network.node_ids()
        }
        assert before != after

    def test_deterministic_given_seed(self, config):
        first = Simulator(config, make_protocol("perigee-vanilla"))
        second = Simulator(config, make_protocol("perigee-vanilla"))
        first.run(rounds=2)
        second.run(rounds=2)
        assert np.allclose(first.evaluate(), second.evaluate())

    def test_evaluate_matches_engine_metric(self, simulator):
        from repro.metrics.delay import hash_power_reach_times

        reach = simulator.evaluate()
        arrival = simulator.engine.all_sources_arrival_times(simulator.network)
        expected = hash_power_reach_times(
            arrival,
            simulator.population.hash_power,
            simulator.config.hash_power_target,
        )
        assert np.allclose(reach, expected)
