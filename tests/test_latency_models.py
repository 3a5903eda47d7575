"""Tests for the latency models (matrix, geographic, metric-space, relay)."""

import importlib
import pkgutil

import numpy as np
import pytest

import repro.latency
from repro.config import default_config
from repro.datasets.bitnodes import generate_population
from repro.datasets.regions import inter_region_latency_ms
from repro.latency.base import LatencyModel, MatrixLatencyModel
from repro.latency.geo import MIN_LINK_LATENCY_MS, GeographicLatencyModel
from repro.latency.metric_space import MetricSpaceLatencyModel
from repro.latency.relay import (
    RelayNetworkOverlay,
    apply_miner_speedup,
    apply_relay_overlay,
    build_relay_tree,
    tree_overlay,
)


@pytest.fixture
def rng():
    return np.random.default_rng(5)


@pytest.fixture
def population(rng):
    return generate_population(default_config(num_nodes=60), rng)


class TestMatrixLatencyModel:
    def test_constant_model(self):
        model = MatrixLatencyModel.constant(5, 10.0)
        assert model.num_nodes == 5
        assert model.latency(0, 1) == pytest.approx(10.0)
        assert model.latency(2, 2) == pytest.approx(0.0)

    def test_symmetrisation(self):
        matrix = np.array([[0.0, 10.0], [20.0, 0.0]])
        model = MatrixLatencyModel(matrix)
        assert model.latency(0, 1) == pytest.approx(15.0)
        assert model.latency(1, 0) == pytest.approx(15.0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MatrixLatencyModel(np.zeros((2, 3)))

    def test_rejects_negative_latency(self):
        matrix = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            MatrixLatencyModel(matrix)

    def test_as_matrix_returns_copy(self):
        model = MatrixLatencyModel.constant(4, 3.0)
        matrix = model.as_matrix()
        matrix[0, 1] = 999.0
        assert model.latency(0, 1) == pytest.approx(3.0)


class TestGeographicLatencyModel:
    def test_shape_and_invariants(self, population, rng):
        model = GeographicLatencyModel(population.nodes, rng)
        model.validate()
        assert model.num_nodes == len(population)

    def test_latencies_bounded_below(self, population, rng):
        model = GeographicLatencyModel(population.nodes, rng)
        matrix = model.as_matrix()
        off_diagonal = matrix[~np.eye(len(population), dtype=bool)]
        assert off_diagonal.min() >= MIN_LINK_LATENCY_MS

    def test_zero_jitter_reproduces_region_means(self, population, rng):
        model = GeographicLatencyModel(population.nodes, rng, jitter=0.0)
        nodes = population.nodes
        for u, v in [(0, 1), (2, 10), (5, 30)]:
            if u == v:
                continue
            expected = max(
                inter_region_latency_ms(nodes[u].region, nodes[v].region),
                MIN_LINK_LATENCY_MS,
            )
            assert model.latency(u, v) == pytest.approx(expected)

    def test_jitter_preserves_symmetry(self, population, rng):
        model = GeographicLatencyModel(population.nodes, rng, jitter=0.6)
        matrix = model.as_matrix()
        assert np.allclose(matrix, matrix.T)

    def test_intra_region_cheaper_on_average(self, rng):
        population = generate_population(default_config(num_nodes=300), rng)
        model = GeographicLatencyModel(population.nodes, rng)
        matrix = model.as_matrix()
        regions = population.regions
        same, cross = [], []
        for u in range(0, 300, 7):
            for v in range(u + 1, 300, 11):
                (same if regions[u] == regions[v] else cross).append(matrix[u, v])
        assert np.mean(same) < np.mean(cross)

    def test_rejects_negative_jitter(self, population, rng):
        with pytest.raises(ValueError):
            GeographicLatencyModel(population.nodes, rng, jitter=-0.1)

    def test_rejects_empty_population(self, rng):
        with pytest.raises(ValueError):
            GeographicLatencyModel([], rng)

    def test_rejects_bad_region_matrix_shape(self, population, rng):
        with pytest.raises(ValueError):
            GeographicLatencyModel(
                population.nodes, rng, region_matrix=np.ones((3, 3))
            )


class TestMetricSpaceLatencyModel:
    def test_latency_is_scaled_euclidean_distance(self, rng):
        positions = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        model = MetricSpaceLatencyModel(
            num_nodes=3, dimension=2, positions=positions, scale_ms=100.0
        )
        assert model.latency(0, 1) == pytest.approx(100.0)
        assert model.latency(1, 2) == pytest.approx(100.0 * np.sqrt(2.0))
        assert model.euclidean_distance(0, 1) == pytest.approx(1.0)

    def test_random_embedding_within_unit_cube(self, rng):
        model = MetricSpaceLatencyModel(num_nodes=50, dimension=3, rng=rng)
        positions = model.positions
        assert positions.shape == (50, 3)
        assert positions.min() >= 0.0
        assert positions.max() <= 1.0

    def test_validate_invariants(self, rng):
        model = MetricSpaceLatencyModel(num_nodes=30, dimension=2, rng=rng)
        model.validate()

    def test_geometric_threshold_shrinks_with_n(self, rng):
        small = MetricSpaceLatencyModel(num_nodes=50, dimension=2, rng=rng)
        large = MetricSpaceLatencyModel(num_nodes=5000, dimension=2, rng=rng)
        assert large.geometric_threshold() < small.geometric_threshold()

    def test_rejects_bad_positions(self):
        with pytest.raises(ValueError):
            MetricSpaceLatencyModel(
                num_nodes=2, dimension=2, positions=np.array([[0.0, 0.0], [2.0, 0.0]])
            )
        with pytest.raises(ValueError):
            MetricSpaceLatencyModel(
                num_nodes=3, dimension=2, positions=np.zeros((2, 2))
            )

    def test_rejects_bad_parameters(self, rng):
        with pytest.raises(ValueError):
            MetricSpaceLatencyModel(num_nodes=0, rng=rng)
        with pytest.raises(ValueError):
            MetricSpaceLatencyModel(num_nodes=5, dimension=0, rng=rng)
        with pytest.raises(ValueError):
            MetricSpaceLatencyModel(num_nodes=5, rng=rng, scale_ms=0.0)


class TestRelayOverlay:
    def test_build_relay_tree_structure(self, rng):
        overlay = build_relay_tree(100, rng, size=10, branching=3)
        assert overlay.size == 10
        assert overlay.tree_parent[0] == -1
        assert len(overlay.edges()) == 9
        # Every non-root parent is a member of the overlay.
        for _, parent in overlay.edges():
            assert parent in overlay.members

    def test_build_relay_tree_is_tree_overlay_of_its_members(self, rng):
        overlay = build_relay_tree(50, rng, size=9, branching=2)
        assert overlay == tree_overlay(overlay.members, branching=2)
        members = (7, 3, 11, 5, 2)
        assert tree_overlay(members).tree_parent == (-1, 7, 7, 7, 3)
        with pytest.raises(ValueError):
            tree_overlay(members, branching=0)

    def test_build_relay_tree_rejects_oversized(self, rng):
        with pytest.raises(ValueError):
            build_relay_tree(5, rng, size=10)

    def test_overlay_validation(self):
        with pytest.raises(ValueError):
            RelayNetworkOverlay(members=(1, 1), tree_parent=(-1, 1))
        with pytest.raises(ValueError):
            RelayNetworkOverlay(members=(1, 2), tree_parent=(-1,))
        with pytest.raises(ValueError):
            RelayNetworkOverlay(
                members=(1, 2), tree_parent=(-1, 1), link_latency_ms=0.0
            )

    def test_apply_relay_overlay_lowers_member_latencies(self, rng):
        base = MatrixLatencyModel.constant(20, 100.0)
        overlay = build_relay_tree(20, rng, size=6, link_latency_ms=5.0)
        fast = apply_relay_overlay(base, overlay, member_pair_latency_ms=20.0)
        for child, parent in overlay.edges():
            assert fast.latency(child, parent) == pytest.approx(5.0)
        members = overlay.members
        assert fast.latency(members[0], members[-1]) <= 20.0
        # Non-member pairs are untouched.
        outsiders = [n for n in range(20) if n not in members]
        assert fast.latency(outsiders[0], outsiders[1]) == pytest.approx(100.0)

    def test_apply_relay_overlay_never_increases_latency(self, rng):
        base = MatrixLatencyModel.constant(15, 3.0)
        overlay = build_relay_tree(15, rng, size=5, link_latency_ms=5.0)
        fast = apply_relay_overlay(base, overlay)
        assert np.all(fast.as_matrix() <= base.as_matrix() + 1e-9)

    def test_apply_miner_speedup(self, rng):
        base = MatrixLatencyModel.constant(10, 100.0)
        fast = apply_miner_speedup(base, [0, 1, 2], speedup=0.1)
        assert fast.latency(0, 1) == pytest.approx(10.0)
        assert fast.latency(0, 5) == pytest.approx(100.0)
        assert fast.latency(4, 5) == pytest.approx(100.0)

    def test_apply_miner_speedup_floor(self):
        base = MatrixLatencyModel.constant(5, 4.0)
        fast = apply_miner_speedup(base, [0, 1], speedup=0.1, floor_ms=1.5)
        assert fast.latency(0, 1) == pytest.approx(1.5)

    def test_apply_miner_speedup_rejects_bad_speedup(self):
        base = MatrixLatencyModel.constant(5, 4.0)
        with pytest.raises(ValueError):
            apply_miner_speedup(base, [0, 1], speedup=0.0)
        with pytest.raises(ValueError):
            apply_miner_speedup(base, [0, 1], speedup=1.5)

    def test_apply_miner_speedup_empty_miner_set_is_noop(self):
        base = MatrixLatencyModel.constant(5, 4.0)
        fast = apply_miner_speedup(base, [])
        assert np.allclose(fast.as_matrix(), base.as_matrix())


def _latency_model_classes() -> set[type]:
    """Every ``LatencyModel`` subclass defined in the ``repro.latency`` package."""
    for info in pkgutil.iter_modules(repro.latency.__path__):
        importlib.import_module(f"repro.latency.{info.name}")
    found, pending = set(), [LatencyModel]
    while pending:
        for subclass in pending.pop().__subclasses__():
            if subclass.__module__.startswith("repro.latency."):
                found.add(subclass)
            pending.append(subclass)
    return found


class TestOneLatencyRule:
    """Each model states ``δ(u, v)`` once, as ``pairwise``."""

    MATRIX_STORING = {
        MatrixLatencyModel,
        MetricSpaceLatencyModel,
        GeographicLatencyModel,
    }

    def test_models_implement_only_pairwise(self):
        classes = _latency_model_classes()
        assert self.MATRIX_STORING < classes
        for cls in classes:
            assert "pairwise" in vars(cls), cls.__name__
            assert "latency" not in vars(cls), cls.__name__
            assert "as_matrix" not in vars(cls), cls.__name__
            assert ("matrix_view" in vars(cls)) == (
                cls in self.MATRIX_STORING
            ), cls.__name__

    def test_derived_accessors_agree_with_pairwise(self, population, rng):
        base = GeographicLatencyModel(population.nodes, rng, memory="sparse")
        model = apply_miner_speedup(base, [0, 1, 2, 3], speedup=0.2)
        n = model.num_nodes
        view = model.matrix_view()
        assert not view.flags.writeable
        rows, cols = np.divmod(np.arange(n * n), n)
        assert np.array_equal(view.ravel(), model.pairwise(rows, cols))
        copy = model.as_matrix()
        assert copy.flags.writeable and np.array_equal(copy, view)
        assert model.latency(0, 1) == view[0, 1]
