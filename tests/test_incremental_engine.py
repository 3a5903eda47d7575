"""The propagation engine's weight-graph memo, plus its neighbours.

``PropagationEngine`` memoises one directed CSR weight graph per network
and topology version, so ``propagate``, ``round_observations`` and the
delay evaluation of one round share a single build.  The contract is that
the memo never serves a stale graph: a hypothesis suite runs random
sequences of every topology mutation (``connect``, ``disconnect``,
``replace_outgoing``, ``fill_random_outgoing``, ``make_fully_connected``,
``load_state_dict`` and ``copy``) and checks after each step that a
change raises ``topology_version`` and that one long-lived engine answers
exactly as a fresh one.  ``TestArrivalTimeParity`` pins the same promise
for ``propagate``, ``arrival_times_from`` and the CSR itself over random
rewire sequences.  Around it: disconnected components, the memo's
hit/miss counters through the telemetry recorder, the delay evaluator's
parameter round trip, the composition-aware overlay wrappers, and chunked
theory stretch.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.network import P2PNetwork
from repro.core.propagation import PropagationEngine
from repro.latency.base import LatencyModel, MatrixLatencyModel
from repro.latency.relay import (
    MinerSpeedupLatencyModel,
    RelayOverlayLatencyModel,
    apply_miner_speedup,
    apply_relay_overlay,
    build_relay_tree,
)
from repro.metrics.evaluator import DelayEvaluator
from repro.telemetry.recorder import MetricsRecorder, use_recorder

common_settings = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

MUTATIONS = (
    "connect",
    "disconnect",
    "replace_outgoing",
    "fill_random_outgoing",
    "make_fully_connected",
    "load_state_dict",
    "copy",
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


def apply_random_rewire(net: P2PNetwork, rng: np.random.Generator) -> None:
    """One random ``connect`` or ``disconnect`` (may split components)."""
    u, v = (int(x) for x in rng.integers(0, net.num_nodes, size=2))
    if u == v:
        return
    if net.has_edge(u, v):
        net.disconnect(u, v) or net.disconnect(v, u)
    else:
        net.connect(u, v)


def assert_engine_matches_fresh(engine, net, latency, validation, sources):
    """``engine`` answers, in round order, exactly as a new engine does."""
    fresh = PropagationEngine(latency, validation)
    got = engine.propagate(net, sources)
    want = fresh.propagate(net, sources)
    assert got.arrival_times.tobytes() == want.arrival_times.tobytes()
    got_obs = engine.round_observations(net, got)
    want_obs = fresh.round_observations(net, want)
    for name in ("senders", "receivers", "indptr", "times"):
        assert (
            getattr(got_obs, name).tobytes() == getattr(want_obs, name).tobytes()
        ), name
    graph = engine.weight_graph(net)
    fresh_graph = fresh.weight_graph(net)
    for name in ("indptr", "indices", "data"):
        assert (
            getattr(graph, name).tobytes() == getattr(fresh_graph, name).tobytes()
        ), name
    held = engine.arrival_times_from(net, sources, graph=graph)
    assert held.tobytes() == fresh.arrival_times_from(net, sources).tobytes()


@common_settings
@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(6, 30),
    operations=st.lists(
        st.tuples(
            st.sampled_from(MUTATIONS),
            st.integers(0, 1_000_000),
            st.integers(0, 1_000_000),
        ),
        min_size=1,
        max_size=25,
    ),
)
def test_memo_never_serves_a_stale_graph(seed, n, operations):
    rng = np.random.default_rng(seed)
    latency = make_latency(n, seed + 1)
    validation = rng.uniform(0.0, 40.0, size=n)
    net = make_network(n, seed + 2)
    engine = PropagationEngine(latency, validation)
    snapshots = [net.state_dict()]
    sources = rng.integers(0, n, size=4)
    assert_engine_matches_fresh(engine, net, latency, validation, sources)
    for op, raw_a, raw_b in operations:
        a, b = raw_a % n, raw_b % n
        before, state = net.topology_version, net.state_dict()
        if op == "copy":
            net = net.copy()  # a new object: the memo must not follow it
        elif op in ("connect", "disconnect"):
            if a == b:
                continue
            changed = getattr(net, op)(a, b)
            # A refused connect or a missing link leaves the version alone.
            assert (net.topology_version > before) == changed
        elif op == "replace_outgoing":
            keep = sorted(net.outgoing_neighbors(a))[: raw_b % 3]
            net.replace_outgoing(a, keep, rng, num_random=1)
        elif op == "fill_random_outgoing":
            net.fill_random_outgoing(a, rng)
        elif op == "make_fully_connected":
            net.make_fully_connected()
            assert net.topology_version > before
        else:
            # Often an earlier edge set: a version that went back would alias.
            net.load_state_dict(snapshots[raw_b % len(snapshots)])
            assert net.topology_version > before
        if op != "copy" and net.state_dict() != state:
            assert net.topology_version > before
        snapshots.append(net.state_dict())
        sources = rng.integers(0, n, size=int(rng.integers(1, 6)))
        assert_engine_matches_fresh(engine, net, latency, validation, sources)


class TestArrivalTimeParity:
    """A long-lived engine answers as a fresh one across rewire sequences."""

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
        engine = PropagationEngine(latency, validation)
        for _ in range(steps):
            for _ in range(int(rng.integers(0, 5))):
                apply_random_rewire(net, rng)
            sources = rng.integers(0, n, size=int(rng.integers(1, 6)))
            got = engine.propagate(net, sources).arrival_times
            fresh = PropagationEngine(latency, validation)
            want = fresh.propagate(net, sources).arrival_times
            assert np.array_equal(got, want)

    @common_settings
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(8, 50),
        steps=st.integers(1, 15),
    )
    def test_arrival_times_from_parity(self, seed, n, steps):
        """The evaluator path: Dijkstra over the caller-held memoised graph."""
        rng = np.random.default_rng(seed)
        latency = make_latency(n, seed + 1)
        validation = rng.uniform(0.0, 40.0, size=n)
        net = make_network(n, seed + 2)
        engine = PropagationEngine(latency, validation)
        for _ in range(steps):
            for _ in range(int(rng.integers(0, 4))):
                apply_random_rewire(net, rng)
            sources = rng.integers(0, n, size=8)
            graph = engine.weight_graph(net)
            got = engine.arrival_times_from(net, sources, graph=graph)
            fresh = PropagationEngine(latency, validation)
            want = fresh.arrival_times_from(net, sources)
            assert np.array_equal(got, want)

    @common_settings
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(6, 40))
    def test_patched_graph_equals_rebuilt_graph(self, seed, n):
        """After rewires the memo is rebuilt, never patched or served stale."""
        rng = np.random.default_rng(seed)
        latency = make_latency(n, seed + 1)
        validation = rng.uniform(0.0, 40.0, size=n)
        net = make_network(n, seed + 2)
        engine = PropagationEngine(latency, validation)
        engine.weight_graph(net)  # prime the memo
        before = net.topology_version
        for _ in range(10):
            apply_random_rewire(net, rng)
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            memoised = engine.weight_graph(net)
        fresh = PropagationEngine(latency, validation).weight_graph(net)
        assert net.topology_version > before
        assert recorder.counter("engine.graph_cache.miss") == 1
        assert np.array_equal(memoised.toarray(), fresh.toarray())
        assert np.array_equal(memoised.indptr, fresh.indptr)
        assert np.array_equal(memoised.indices, fresh.indices)
        assert np.array_equal(memoised.data, fresh.data)

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
        engine = PropagationEngine(latency, validation)
        sources = np.arange(n)
        got = engine.propagate(net, sources).arrival_times
        want = PropagationEngine(latency, validation).propagate(net, sources)
        assert np.array_equal(got, want.arrival_times)
        assert np.all(np.isinf(got[0, 6:]))
        # Bridge the components: the memo must not serve the split graph.
        net.connect(0, 6)
        got = engine.propagate(net, sources).arrival_times
        want = PropagationEngine(latency, validation).propagate(net, sources)
        assert np.array_equal(got, want.arrival_times)
        assert np.all(np.isfinite(got[0]))

    def test_stale_version_falls_back_to_rebuild(self):
        """A copy is another network: the memo misses and rebuilds."""
        n = 16
        latency = make_latency(n, 3)
        validation = np.zeros(n)
        net = make_network(n, 4)
        engine = PropagationEngine(latency, validation)
        engine.weight_graph(net)
        copy = net.copy()
        recorder = MetricsRecorder()
        sources = np.arange(n)
        with use_recorder(recorder):
            got = engine.propagate(copy, sources).arrival_times
        want = PropagationEngine(latency, validation).propagate(copy, sources)
        assert np.array_equal(got, want.arrival_times)
        assert recorder.counter("engine.graph_cache.miss") == 1
        assert recorder.counter("engine.graph_cache.hit") == 0


class TestNetworkChangeLog:
    def test_make_fully_connected_resets_log(self):
        """``make_fully_connected`` raises the version; the memo rebuilds."""
        n = 6
        latency = make_latency(n, 1)
        validation = np.zeros(n)
        net = P2PNetwork(n)
        net.connect(0, 1)
        engine = PropagationEngine(latency, validation)
        sparse = engine.weight_graph(net)
        base = net.topology_version
        net.make_fully_connected()
        assert net.topology_version > base
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            graph = engine.weight_graph(net)
        assert recorder.counter("engine.graph_cache.miss") == 1
        assert graph.nnz > sparse.nnz
        fresh = PropagationEngine(latency, validation).weight_graph(net)
        assert np.array_equal(graph.toarray(), fresh.toarray())


class TestEngineCounters:
    def test_cache_counters_reach_recorder(self):
        n = 30
        latency = make_latency(n, 7)
        validation = np.zeros(n)
        net = make_network(n, 8)
        engine = PropagationEngine(latency, validation)
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            result = engine.propagate(net, np.arange(6))  # miss
            engine.round_observations(net, result)  # reads the memo, no count
            engine.weight_graph(net)  # hit
            u, v = net.edge_list()[0]
            assert net.disconnect(u, v) or net.disconnect(v, u)
            engine.propagate(net, np.arange(6))  # miss: the version moved
        assert recorder.counter("engine.graph_cache.miss") == 2
        assert recorder.counter("engine.graph_cache.hit") == 1
        assert recorder.counter("engine.dijkstra_sources") == 12


class TestEvaluatorBackends:
    def test_params_round_trip(self):
        evaluator = DelayEvaluator(mode="sampled", sample_size=32, seed=13)
        assert DelayEvaluator.from_params(evaluator.to_params()) == evaluator
        assert DelayEvaluator().to_params() == {}


class _NoDenseModel(LatencyModel):
    """A base model that refuses to materialise its dense matrix."""

    def __init__(self, matrix: np.ndarray) -> None:
        self._matrix = matrix

    @property
    def num_nodes(self) -> int:
        return int(self._matrix.shape[0])

    def matrix_view(self) -> np.ndarray:
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
