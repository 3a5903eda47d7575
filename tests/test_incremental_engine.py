"""Property-based parity: incremental engine vs the from-scratch rebuild.

The incremental engine promises *bit-for-bit* the same arrival times as
the rebuild path: the cached directed CSR weight graph is patched in place
from the network's rewire delta instead of rebuilt from all N adjacency
sets, and every call still runs one Dijkstra pass over it.  This suite
pins that promise across random rewire sequences — including node churn
(``purge_node``) and disconnected components — plus the surrounding
contracts: graph-patch equality against a from-scratch CSR, cache counters
through the telemetry recorder, end-to-end ``execute_sweep`` record
equality with the engine on vs off, the process-parallel / adaptive
evaluation backends, the composition-aware overlay wrappers, and chunked
theory stretch.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.network import P2PNetwork
from repro.core.propagation import PropagationEngine
from repro.core.simulator import Simulator
from repro.latency.base import LatencyModel, MatrixLatencyModel
from repro.latency.relay import (
    MinerSpeedupLatencyModel,
    RelayOverlayLatencyModel,
    apply_miner_speedup,
    apply_relay_overlay,
    build_relay_tree,
)
from repro.metrics.evaluator import DelayEvaluator
from repro.protocols.registry import make_protocol
from repro.telemetry.recorder import MetricsRecorder, use_recorder

common_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def make_latency(n: int, seed: int) -> MatrixLatencyModel:
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(1.0, 300.0, size=(n, n))
    matrix = (matrix + matrix.T) / 2.0
    np.fill_diagonal(matrix, 0.0)
    return MatrixLatencyModel(matrix)


def make_network(n: int, seed: int, degree: int = 4) -> P2PNetwork:
    rng = np.random.default_rng(seed)
    net = P2PNetwork(n)
    for u in range(n):
        for v in rng.choice(n, size=degree, replace=False):
            if u != int(v):
                net.connect(u, int(v))
    return net


def apply_random_mutation(net: P2PNetwork, rng: np.random.Generator) -> None:
    kind = rng.integers(0, 10)
    if kind == 0:
        # Node churn: a peer disappears entirely (can disconnect components).
        net.purge_node(int(rng.integers(0, net.num_nodes)))
        return
    u, v = (int(x) for x in rng.integers(0, net.num_nodes, size=2))
    if u == v:
        return
    if net.has_edge(u, v):
        net.disconnect(u, v) or net.disconnect(v, u)
    else:
        net.connect(u, v)


class TestArrivalTimeParity:
    """Bit-identical arrival times across random rewire sequences."""

    @common_settings
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(8, 60),
        steps=st.integers(1, 25),
    )
    def test_propagate_parity(self, seed, n, steps):
        rng = np.random.default_rng(seed)
        latency = make_latency(n, seed + 1)
        validation = rng.uniform(0.0, 40.0, size=n)
        net = make_network(n, seed + 2)
        on = PropagationEngine(latency, validation, incremental=True)
        off = PropagationEngine(latency, validation, incremental=False)
        for _ in range(steps):
            for _ in range(int(rng.integers(0, 5))):
                apply_random_mutation(net, rng)
            sources = rng.integers(0, n, size=int(rng.integers(1, 6)))
            got = on.propagate(net, sources).arrival_times
            want = off.propagate(net, sources).arrival_times
            assert np.array_equal(got, want)

    @common_settings
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(8, 50),
        steps=st.integers(1, 15),
    )
    def test_arrival_times_from_parity(self, seed, n, steps):
        """The evaluator path: Dijkstra over the caller-held patched graph."""
        rng = np.random.default_rng(seed)
        latency = make_latency(n, seed + 1)
        validation = rng.uniform(0.0, 40.0, size=n)
        net = make_network(n, seed + 2)
        on = PropagationEngine(latency, validation, incremental=True)
        off = PropagationEngine(latency, validation, incremental=False)
        for _ in range(steps):
            for _ in range(int(rng.integers(0, 4))):
                apply_random_mutation(net, rng)
            # Each step's mutations force a patch of the graph passed in.
            sources = rng.integers(0, n, size=8)
            graph = on.weight_graph(net)
            got = on.arrival_times_from(net, sources, graph=graph)
            want = off.arrival_times_from(net, sources)
            assert np.array_equal(got, want)

    def test_disconnected_components_stay_inf(self):
        n = 12
        latency = make_latency(n, 0)
        validation = np.zeros(n)
        net = P2PNetwork(n)
        # Two cliques of six, no bridge.
        for group in (range(0, 6), range(6, 12)):
            group = list(group)
            for i in group:
                for j in group:
                    if i < j:
                        net.connect(i, j)
        on = PropagationEngine(latency, validation, incremental=True)
        off = PropagationEngine(latency, validation, incremental=False)
        sources = np.arange(n)
        got = on.propagate(net, sources).arrival_times
        want = off.propagate(net, sources).arrival_times
        assert np.array_equal(got, want)
        assert np.all(np.isinf(got[0, 6:]))
        # Bridge the components and check the patched graph catches up.
        net.connect(0, 6)
        got = on.propagate(net, sources).arrival_times
        want = off.propagate(net, sources).arrival_times
        assert np.array_equal(got, want)
        assert np.all(np.isfinite(got[0]))

    @common_settings
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(6, 40))
    def test_patched_graph_equals_rebuilt_graph(self, seed, n):
        rng = np.random.default_rng(seed)
        latency = make_latency(n, seed + 1)
        validation = rng.uniform(0.0, 40.0, size=n)
        net = make_network(n, seed + 2)
        engine = PropagationEngine(latency, validation, incremental=True)
        engine.weight_graph(net)  # prime the cache
        for _ in range(10):
            apply_random_mutation(net, rng)
        patched = engine.weight_graph(net)
        fresh = PropagationEngine(
            latency, validation, incremental=True
        ).weight_graph(net)
        assert engine.cache_stats()["graph_patches"] >= 1
        assert np.array_equal(patched.toarray(), fresh.toarray())
        assert np.array_equal(patched.indptr, fresh.indptr)
        assert np.array_equal(patched.indices, fresh.indices)
        assert np.array_equal(patched.data, fresh.data)

    def test_stale_version_falls_back_to_rebuild(self):
        """Diffs the change log no longer covers trigger a clean rebuild."""
        n = 16
        latency = make_latency(n, 3)
        validation = np.zeros(n)
        net = make_network(n, 4)
        engine = PropagationEngine(latency, validation, incremental=True)
        engine.weight_graph(net)
        copy = net.copy()  # resets the clone's change log
        off = PropagationEngine(latency, validation, incremental=False)
        sources = np.arange(n)
        got = engine.propagate(copy, sources).arrival_times
        want = off.propagate(copy, sources).arrival_times
        assert np.array_equal(got, want)
        assert engine.cache_stats()["graph_misses"] >= 1


class TestNetworkChangeLog:
    def test_changes_since_nets_add_then_remove(self):
        net = P2PNetwork(8)
        base = net.topology_version
        assert net.connect(0, 1)
        assert net.disconnect(0, 1)
        added, removed = net.changes_since(base)
        assert added == [] and removed == []

    def test_changes_since_nets_remove_then_add(self):
        net = P2PNetwork(8)
        assert net.connect(0, 1)
        base = net.topology_version
        assert net.disconnect(0, 1)
        assert net.connect(1, 0)
        added, removed = net.changes_since(base)
        assert added == [] and removed == []

    def test_changes_since_unknown_version_returns_none(self):
        net = P2PNetwork(8)
        assert net.changes_since(net.topology_version + 1) is None

    def test_make_fully_connected_resets_log(self):
        net = P2PNetwork(6)
        base = net.topology_version
        net.make_fully_connected()
        assert net.changes_since(base) is None


class TestEngineCounters:
    def test_cache_counters_reach_recorder(self):
        n = 30
        latency = make_latency(n, 7)
        validation = np.zeros(n)
        net = make_network(n, 8)
        engine = PropagationEngine(latency, validation, incremental=True)
        recorder = MetricsRecorder()
        rng = np.random.default_rng(9)
        with use_recorder(recorder):
            engine.propagate(net, np.arange(6))
            apply_random_mutation(net, rng)
            apply_random_mutation(net, rng)
            engine.propagate(net, np.arange(6))
        assert recorder.counter("engine.graph_cache.miss") >= 1
        assert recorder.counter("engine.graph_cache.patched") >= 1
        stats = engine.cache_stats()
        assert stats["incremental"] is True
        assert stats["graph_misses"] >= 1
        assert stats["graph_patches"] >= 1
        assert recorder.counter("engine.dijkstra_sources") == 12


class TestEndToEndParity:
    def test_simulator_runs_identical_engine_on_vs_off(self):
        config = default_config(
            num_nodes=40, rounds=4, blocks_per_round=10, seed=5
        )
        results = []
        for incremental in (True, False):
            simulator = Simulator(
                config,
                make_protocol("perigee-subset"),
                incremental_engine=incremental,
            )
            outcome = simulator.run()
            results.append((outcome, sorted(simulator.network.edges())))
        (a, a_edges), (b, b_edges) = results
        assert np.array_equal(a.final_reach_times_ms, b.final_reach_times_ms)
        assert a_edges == b_edges

    def test_execute_sweep_records_identical(self, tmp_path, monkeypatch):
        from repro.runtime.executor import SerialExecutor, execute_sweep
        from repro.runtime.tasks import SweepSpec

        config = default_config(
            num_nodes=30, rounds=2, blocks_per_round=8, seed=11
        )
        spec = SweepSpec(
            name="parity",
            config=config,
            protocols=("random", "perigee-subset"),
            repeats=1,
        )
        built = []

        def stateless_engine(*args, **kwargs):
            engine = PropagationEngine(*args, **{**kwargs, "incremental": False})
            built.append(engine)
            return engine

        def sweep_payload():
            records = execute_sweep(spec, executor=SerialExecutor())
            dicts = [record.to_dict() for record in records]
            for entry in dicts:
                entry.pop("duration_s")  # wall-clock noise
            return dicts

        incremental = sweep_payload()
        monkeypatch.setattr(
            "repro.core.simulator.PropagationEngine", stateless_engine
        )
        stateless = sweep_payload()
        assert built and not any(engine.incremental for engine in built)
        assert incremental == stateless


class TestEvaluatorBackends:
    def setup_method(self):
        self.n = 220
        self.latency = make_latency(self.n, 21)
        self.validation = np.zeros(self.n)
        self.net = make_network(self.n, 22)
        self.engine = PropagationEngine(
            self.latency, self.validation, incremental=False
        )
        self.hash_power = np.full(self.n, 1.0 / self.n)

    def test_parallel_workers_bit_identical(self):
        serial = DelayEvaluator(mode="exact", chunk_size=50)
        parallel = DelayEvaluator(mode="exact", chunk_size=50, workers=2)
        a = serial.evaluate(
            self.engine, self.net, self.hash_power, target_fractions=(0.5, 0.9)
        )
        b = parallel.evaluate(
            self.engine, self.net, self.hash_power, target_fractions=(0.5, 0.9)
        )
        assert np.array_equal(a.reach_times_ms, b.reach_times_ms)
        assert np.array_equal(a.source_ids, b.source_ids)

    @pytest.mark.parametrize(
        ("sample_size", "target_se_ms", "draws"),
        [(96, None, 96), (48, 1e-6, 384)],
    )
    def test_parallel_sampled_matches_serial(
        self, sample_size, target_se_ms, draws
    ):
        # Skewed hash power makes the with-replacement draw repeat sources,
        # so the pool path must expand its distinct rows over the multiset.
        hash_power = np.random.default_rng(3).dirichlet(np.ones(self.n))
        params = dict(
            mode="sampled",
            sample_size=sample_size,
            chunk_size=16,
            seed=4,
            target_se_ms=target_se_ms,
        )
        a = DelayEvaluator(**params).evaluate(self.engine, self.net, hash_power)
        b = DelayEvaluator(**params, workers=2).evaluate(
            self.engine, self.net, hash_power
        )
        assert a.sampled and a.num_sources == draws
        assert 16 < np.unique(a.source_ids).size < draws
        assert np.array_equal(a.source_ids, b.source_ids)
        assert np.array_equal(a.reach_times_ms, b.reach_times_ms)
        assert a.standard_error_ms == b.standard_error_ms

    def test_adaptive_first_batch_matches_fixed_draw(self):
        fixed = DelayEvaluator(mode="sampled", sample_size=32, seed=13)
        adaptive = DelayEvaluator(
            mode="sampled", sample_size=32, seed=13, target_se_ms=1e12
        )
        a = fixed.evaluate(self.engine, self.net, self.hash_power)
        b = adaptive.evaluate(self.engine, self.net, self.hash_power)
        assert np.array_equal(a.source_ids, b.source_ids)
        assert np.array_equal(a.reach_times_ms, b.reach_times_ms)

    def test_adaptive_grows_until_precision(self):
        from repro.metrics.evaluator import MAX_ADAPTIVE_BATCHES

        loose = DelayEvaluator(mode="sampled", sample_size=32, seed=13)
        tight = DelayEvaluator(
            mode="sampled", sample_size=32, seed=13, target_se_ms=1e-9
        )
        a = loose.evaluate(self.engine, self.net, self.hash_power)
        b = tight.evaluate(self.engine, self.net, self.hash_power)
        assert b.num_sources == 32 * MAX_ADAPTIVE_BATCHES
        assert a.num_sources == 32
        # The grown sample cannot be less precise than the single batch.
        assert b.standard_error_ms[0] <= a.standard_error_ms[0]

    def test_params_round_trip(self):
        evaluator = DelayEvaluator(workers=4, target_se_ms=2.5)
        assert DelayEvaluator.from_params(evaluator.to_params()) == evaluator
        assert DelayEvaluator().to_params() == {}
        with pytest.raises(ValueError):
            DelayEvaluator(workers=0)
        with pytest.raises(ValueError):
            DelayEvaluator(target_se_ms=0.0)


class _NoDenseModel(LatencyModel):
    """A base model that refuses to materialise its dense matrix."""

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = matrix

    @property
    def num_nodes(self) -> int:
        return int(self._matrix.shape[0])

    def latency(self, u: int, v: int) -> float:
        return float(self._matrix[u, v])

    def as_matrix(self) -> np.ndarray:
        raise AssertionError("overlay materialised a dense matrix")

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return self._matrix[np.asarray(u, dtype=np.int64), np.asarray(v, dtype=np.int64)]


class TestOverlayWrappers:
    def setup_method(self):
        self.n = 50
        rng = np.random.default_rng(31)
        matrix = rng.uniform(1.0, 200.0, size=(self.n, self.n))
        matrix = (matrix + matrix.T) / 2.0
        np.fill_diagonal(matrix, 0.0)
        self.matrix = matrix
        self.base = MatrixLatencyModel(matrix)
        self.rng = np.random.default_rng(32)

    def _legacy_miner(self, miners, speedup, floor):
        dense = self.base.as_matrix()
        miners = np.asarray(miners, dtype=int)
        if miners.size:
            sub = dense[np.ix_(miners, miners)]
            dense[np.ix_(miners, miners)] = np.maximum(sub * speedup, floor)
        np.fill_diagonal(dense, 0.0)
        return MatrixLatencyModel(dense)

    def _legacy_relay(self, overlay, pair_ms):
        dense = self.base.as_matrix()
        for child, parent in overlay.edges():
            dense[child, parent] = min(
                dense[child, parent], overlay.link_latency_ms
            )
            dense[parent, child] = dense[child, parent]
        if pair_ms is not None:
            members = np.array(overlay.members, dtype=int)
            sub = dense[np.ix_(members, members)]
            dense[np.ix_(members, members)] = np.minimum(sub, pair_ms)
        np.fill_diagonal(dense, 0.0)
        return MatrixLatencyModel(dense)

    def test_miner_speedup_matches_legacy_dense(self):
        miners = [1, 4, 9, 16, 25]
        wrapper = apply_miner_speedup(self.base, miners, speedup=0.1)
        legacy = self._legacy_miner(miners, 0.1, 1.0)
        assert isinstance(wrapper, MinerSpeedupLatencyModel)
        assert np.array_equal(wrapper.as_matrix(), legacy.as_matrix())
        u = self.rng.integers(0, self.n, size=400)
        v = self.rng.integers(0, self.n, size=400)
        assert np.array_equal(wrapper.pairwise(u, v), legacy.pairwise(u, v))
        assert wrapper.latency(1, 4) == legacy.latency(1, 4)
        assert wrapper.latency(3, 3) == 0.0

    def test_relay_overlay_matches_legacy_dense(self):
        overlay = build_relay_tree(
            self.n, np.random.default_rng(33), size=12, link_latency_ms=5.0
        )
        u = self.rng.integers(0, self.n, size=400)
        v = self.rng.integers(0, self.n, size=400)
        for pair_ms in (None, 20.0):
            wrapper = apply_relay_overlay(
                self.base, overlay, member_pair_latency_ms=pair_ms
            )
            legacy = self._legacy_relay(overlay, pair_ms)
            assert isinstance(wrapper, RelayOverlayLatencyModel)
            assert np.array_equal(wrapper.as_matrix(), legacy.as_matrix())
            assert np.array_equal(wrapper.pairwise(u, v), legacy.pairwise(u, v))
            child, parent = overlay.edges()[0]
            assert wrapper.latency(child, parent) == legacy.latency(child, parent)

    def test_wrappers_never_materialise_dense(self):
        sparse_base = _NoDenseModel(self.matrix)
        u = self.rng.integers(0, self.n, size=200)
        v = self.rng.integers(0, self.n, size=200)
        fast = apply_miner_speedup(sparse_base, [0, 1, 2], speedup=0.5)
        fast.pairwise(u, v)
        fast.latency(0, 1)
        overlay = build_relay_tree(
            self.n, np.random.default_rng(34), size=8, link_latency_ms=5.0
        )
        relay = apply_relay_overlay(
            sparse_base, overlay, member_pair_latency_ms=20.0
        )
        relay.pairwise(u, v)
        relay.latency(0, 1)

    def test_wrapper_validation(self):
        with pytest.raises(ValueError):
            apply_miner_speedup(self.base, [self.n + 1])
        with pytest.raises(ValueError):
            apply_miner_speedup(self.base, [0, 1], speedup=0.0)
        overlay = build_relay_tree(
            self.n, np.random.default_rng(35), size=4, link_latency_ms=5.0
        )
        with pytest.raises(ValueError):
            apply_relay_overlay(self.base, overlay, member_pair_latency_ms=0.0)


class TestStretchChunking:
    def test_chunked_all_pairs_matches_unchunked(self):
        from repro.latency.metric_space import MetricSpaceLatencyModel
        from repro.theory.stretch import shortest_path_latencies

        n = 40
        model = MetricSpaceLatencyModel(n, rng=np.random.default_rng(41))
        rng = np.random.default_rng(42)
        edges = np.array(
            [
                (u, v)
                for u in range(n)
                for v in rng.choice(n, size=3, replace=False)
                if u < int(v)
            ],
            dtype=int,
        )
        full = shortest_path_latencies(model, edges, chunk_size=n)
        chunked = shortest_path_latencies(model, edges, chunk_size=7)
        assert np.array_equal(full, chunked)
        subset = shortest_path_latencies(model, edges, sources=np.array([3, 5]))
        assert np.array_equal(subset, full[[3, 5]])
