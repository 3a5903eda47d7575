"""Tests for the analytic (Dijkstra-based) propagation engine."""

import tracemalloc

import numpy as np
import pytest

from repro.config import default_config
from repro.core.network import P2PNetwork
from repro.core.observations import RoundObservations
from repro.core.propagation import PropagationEngine
from repro.core.simulator import Simulator
from repro.latency.base import MatrixLatencyModel
from repro.protocols.registry import make_protocol
from repro.telemetry.recorder import MetricsRecorder, use_recorder


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


def _scalar_round(engine, network, result, block_ids):
    """Reference round: :meth:`_forward_time` for every directed edge."""
    senders, receivers, rows = [], [], []
    for u, v in network.edge_list():
        for sender, receiver in ((u, v), (v, u)):
            senders.append(sender)
            receivers.append(receiver)
            rows.append(
                [
                    engine._forward_time(
                        result.arrival_times[b], int(source), sender, receiver
                    )
                    for b, source in enumerate(result.sources)
                ]
            )
    times = np.array(rows, dtype=float).reshape(len(senders), result.num_blocks)
    return RoundObservations.from_directed_edges(
        num_nodes=network.num_nodes,
        block_ids=block_ids,
        senders=senders,
        receivers=receivers,
        times=times,
    )


def _parity_engine(num_nodes, seed=3):
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(5.0, 200.0, size=(num_nodes, num_nodes))
    matrix = (matrix + matrix.T) / 3.0
    np.fill_diagonal(matrix, 0.0)
    validation = rng.uniform(0.0, 40.0, size=num_nodes)
    engine = PropagationEngine(MatrixLatencyModel(matrix), validation)
    return engine, rng


def _random_overlay(num_nodes, rng, isolated=()):
    network = P2PNetwork(num_nodes=num_nodes, out_degree=4, max_incoming=8)
    for node in range(num_nodes):
        if node in isolated:
            continue
        for _ in range(4):
            peer = int(rng.integers(num_nodes))
            if peer != node and peer not in isolated:
                network.connect(node, peer)
    return network


def _assert_same_round(observed, expected):
    assert observed.num_nodes == expected.num_nodes
    assert observed.block_ids.tobytes() == expected.block_ids.tobytes()
    for name in ("senders", "receivers", "indptr"):
        got, want = getattr(observed, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    assert observed.times.shape == expected.times.shape
    assert observed.times.flags.c_contiguous
    assert observed.times.tobytes() == expected.times.tobytes()


class TestOnePassRoundObservations:
    """``round_observations`` equals the scalar formula bit for bit.

    ``warm`` primes the engine's weight-graph memo for the network before
    ``propagate`` (as a previous round's evaluation would), so ``propagate``
    hits the memo instead of building it.
    """

    @pytest.mark.parametrize("warm", [True, False])
    def test_matches_scalar_forward_times(self, warm):
        engine, rng = _parity_engine(30)
        network = _random_overlay(30, rng, isolated=(7,))
        if warm:
            engine.weight_graph(network)
        sources = np.array([0, 5, 5, 12, 29, 7])
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            result = engine.propagate(network, sources)
            counts = dict(recorder.snapshot()["counters"])
            block_ids = np.arange(100, 100 + sources.size)
            observed = engine.round_observations(
                network, result, block_ids=block_ids
            )
            # Reading the memo's edge arrays moves no counter.
            assert recorder.snapshot()["counters"] == counts
        served = "hit" if warm else "miss"
        assert counts[f"engine.graph_cache.{served}"] == 1
        _assert_same_round(
            observed, _scalar_round(engine, network, result, block_ids)
        )
        # Rows forwarded by a block's own miner carry no validation delay.
        miner_rows = observed.senders == 5
        assert miner_rows.any()
        assert observed.neighbors_of(7).size == 0
        assert np.all(observed.first_arrivals()[7] == np.inf)

    @pytest.mark.parametrize("warm", [True, False])
    def test_network_mutated_after_propagate(self, warm):
        engine, rng = _parity_engine(25)
        network = _random_overlay(25, rng)
        if warm:
            engine.weight_graph(network)
        result = engine.propagate(network, [1, 4, 9])
        u, v = network.edge_list()[0]
        assert network.disconnect(u, v) or network.disconnect(v, u)
        network.connect(3, 20)
        observed = engine.round_observations(network, result)
        _assert_same_round(
            observed, _scalar_round(engine, network, result, np.arange(3))
        )
        assert observed.num_directed_edges == 2 * network.num_edges()

    @pytest.mark.parametrize("warm", [True, False])
    def test_second_network_object(self, warm):
        engine, rng = _parity_engine(25)
        network = _random_overlay(25, rng)
        if warm:
            engine.weight_graph(network)
        other = _random_overlay(25, rng)
        result = engine.propagate(network, [2, 2, 17])
        observed = engine.round_observations(other, result)
        _assert_same_round(
            observed, _scalar_round(engine, other, result, np.arange(3))
        )

    @pytest.mark.parametrize("warm", [True, False])
    def test_empty_overlay(self, warm):
        engine, _ = _parity_engine(6)
        network = P2PNetwork(num_nodes=6, out_degree=2, max_incoming=4)
        if warm:
            engine.weight_graph(network)
        result = engine.propagate(network, [0, 3])
        observed = engine.round_observations(network, result)
        _assert_same_round(observed, RoundObservations.empty(6, np.arange(2)))
        _assert_same_round(
            observed, _scalar_round(engine, network, result, np.arange(2))
        )

    def test_block_ids_must_match_block_count(self):
        engine, rng = _parity_engine(10)
        network = _random_overlay(10, rng)
        result = engine.propagate(network, [0, 1])
        with pytest.raises(ValueError):
            engine.round_observations(network, result, block_ids=[0, 1, 2])


def test_collect_observations_allocates_one_times_matrix():
    """The round's only large allocation is its ``(2E, B)`` timestamp matrix."""
    config = default_config(
        num_nodes=2000,
        rounds=1,
        blocks_per_round=50,
        seed=0,
        latency_model="geographic-sparse",
    )
    simulator = Simulator(config, make_protocol("perigee-subset"))
    blocks = simulator.mine_blocks()
    result = simulator.propagate_blocks(blocks)
    tracemalloc.start()
    try:
        observations = simulator.collect_observations(blocks, result)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert observations.num_blocks == 50
    assert peak <= 1.5 * observations.times.nbytes, (
        f"peak {peak / observations.times.nbytes:.2f}x the times matrix"
    )


class TestAllSources:
    def test_all_sources_matches_individual_propagation(self, engine, random_network):
        matrix = engine.all_sources_arrival_times(random_network)
        for source in (0, 7, 23):
            single = engine.propagate(random_network, [source])
            assert np.allclose(matrix[source], single.arrival_times[0])

    def test_diagonal_is_zero(self, engine, random_network):
        matrix = engine.all_sources_arrival_times(random_network)
        assert np.allclose(np.diag(matrix), 0.0)
