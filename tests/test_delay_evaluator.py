"""Tests for the chunked / sampled delay evaluator."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import default_config
from repro.core.network import P2PNetwork
from repro.core.propagation import PropagationEngine
from repro.datasets.bitnodes import generate_population
from repro.latency.geo import GeographicLatencyModel
from repro.metrics.delay import hash_power_reach_times, reach_times_for_sources
from repro.metrics.evaluator import DelayEvaluation, DelayEvaluator
from repro.runtime.executor import run_task
from repro.runtime.tasks import SweepSpec


def build_environment(num_nodes=50, seed=0, out_degree=4):
    config = default_config(num_nodes=num_nodes, seed=seed)
    rng = np.random.default_rng(seed)
    population = generate_population(config, rng)
    latency = GeographicLatencyModel(population.nodes, rng)
    engine = PropagationEngine(latency, population.validation_delays)
    network = P2PNetwork(
        num_nodes=num_nodes, out_degree=out_degree, max_incoming=12
    )
    for node in range(num_nodes):
        network.fill_random_outgoing(node, rng)
    return engine, network, population


class TestExactMode:
    @pytest.mark.parametrize("chunk_size", [1, 7, 50, 512])
    def test_chunked_equals_all_pairs(self, chunk_size):
        engine, network, population = build_environment()
        arrival = engine.all_sources_arrival_times(network)
        expected = hash_power_reach_times(arrival, population.hash_power, 0.9)
        evaluator = DelayEvaluator(mode="exact", chunk_size=chunk_size)
        reach = evaluator.evaluate(engine, network, population.hash_power).reach(0.9)
        assert np.array_equal(reach, expected)

    def test_multiple_targets_share_sources(self):
        engine, network, population = build_environment()
        evaluation = DelayEvaluator(mode="exact").evaluate(
            engine, network, population.hash_power, target_fractions=(0.9, 0.5)
        )
        arrival = engine.all_sources_arrival_times(network)
        assert np.array_equal(
            evaluation.reach(0.9),
            hash_power_reach_times(arrival, population.hash_power, 0.9),
        )
        assert np.array_equal(
            evaluation.reach(0.5),
            hash_power_reach_times(arrival, population.hash_power, 0.5),
        )
        assert not evaluation.sampled
        assert evaluation.standard_error_ms == (None, None)
        with pytest.raises(KeyError):
            evaluation.reach(0.75)

    def test_auto_below_threshold_is_exact(self):
        engine, network, population = build_environment()
        evaluation = DelayEvaluator(mode="auto", exact_threshold=50).evaluate(
            engine, network, population.hash_power
        )
        assert not evaluation.sampled
        assert evaluation.num_sources == 50


class TestSampledMode:
    def test_auto_above_threshold_samples(self):
        engine, network, population = build_environment()
        evaluator = DelayEvaluator(
            mode="auto", exact_threshold=10, sample_size=20
        )
        evaluation = evaluator.evaluate(engine, network, population.hash_power)
        assert evaluation.sampled
        assert evaluation.num_sources == 20
        # With-replacement draws: sorted, repeats allowed.
        assert np.all(np.diff(evaluation.source_ids) >= 0)
        assert evaluation.standard_error_ms[0] is not None

    def test_sample_covering_population_degrades_to_exact(self):
        engine, network, population = build_environment()
        evaluation = DelayEvaluator(mode="sampled", sample_size=50).evaluate(
            engine, network, population.hash_power
        )
        assert not evaluation.sampled
        assert evaluation.num_sources == 50

    def test_sampling_is_deterministic(self):
        engine, network, population = build_environment()
        kwargs = dict(mode="sampled", sample_size=15, seed=3)
        left = DelayEvaluator(**kwargs).evaluate(
            engine, network, population.hash_power
        )
        right = DelayEvaluator(**kwargs).evaluate(
            engine, network, population.hash_power
        )
        assert np.array_equal(left.source_ids, right.source_ids)
        assert np.array_equal(left.reach_times_ms, right.reach_times_ms)
        other_seed = DelayEvaluator(mode="sampled", sample_size=15, seed=4)
        assert not np.array_equal(
            other_seed.evaluate(
                engine, network, population.hash_power
            ).source_ids,
            left.source_ids,
        )

    def test_sampled_rows_match_exact_rows(self):
        """Each sampled source's reach time equals its exact counterpart."""
        engine, network, population = build_environment()
        evaluation = DelayEvaluator(mode="sampled", sample_size=12).evaluate(
            engine, network, population.hash_power
        )
        arrival = engine.all_sources_arrival_times(network)
        exact = hash_power_reach_times(arrival, population.hash_power, 0.9)
        assert np.array_equal(evaluation.reach(0.9), exact[evaluation.source_ids])

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_estimate_within_reported_confidence_interval(self, seed):
        """Sampled mean is within ~5 standard errors of the exact mean.

        Uniform hash power, so the miner-weighted draw is a plain source
        subsample and the exact population mean is the estimand.  Five
        standard errors leaves ~1e-6 per-example flake probability even
        before the finite-population correction makes the bar conservative.
        """
        engine, network, population = build_environment(num_nodes=60, seed=1)
        evaluation = DelayEvaluator(
            mode="sampled", sample_size=30, seed=seed
        ).evaluate(engine, network, population.hash_power)
        arrival = engine.all_sources_arrival_times(network)
        exact = hash_power_reach_times(arrival, population.hash_power, 0.9)
        exact_mean = float(np.mean(exact[np.isfinite(exact)]))
        sampled = evaluation.reach(0.9)
        sampled_mean = float(np.mean(sampled[np.isfinite(sampled)]))
        error = evaluation.standard_error_ms[0]
        assert error is not None and error > 0
        assert abs(sampled_mean - exact_mean) <= 5.0 * error

    def test_metadata_round_trips_to_json_types(self):
        engine, network, population = build_environment()
        evaluation = DelayEvaluator(mode="sampled", sample_size=10).evaluate(
            engine, network, population.hash_power
        )
        metadata = evaluation.to_metadata()
        assert metadata["sampled"] is True
        assert metadata["num_sources"] == 10
        assert all(isinstance(s, int) for s in metadata["source_ids"])
        assert isinstance(metadata["standard_error_ms"][0], float)


class TestParameters:
    def test_params_round_trip(self):
        evaluator = DelayEvaluator(
            mode="sampled", sample_size=128, chunk_size=64, seed=9
        )
        assert DelayEvaluator.from_params(evaluator.to_params()) == evaluator

    def test_default_params_are_empty(self):
        assert DelayEvaluator().to_params() == {}

    def test_unknown_params_rejected(self):
        with pytest.raises(ValueError):
            DelayEvaluator.from_params({"modes": "exact"})

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            DelayEvaluator(mode="approximate")
        with pytest.raises(ValueError):
            DelayEvaluator(sample_size=0)
        with pytest.raises(ValueError):
            DelayEvaluator(chunk_size=0)
        with pytest.raises(ValueError):
            DelayEvaluator(exact_threshold=0)


class TestRuntimeIntegration:
    def test_default_task_hash_unaffected_by_evaluation_field(self):
        spec = SweepSpec(
            name="t",
            config=default_config(num_nodes=40, rounds=2),
            protocols=("random",),
        )
        task = spec.expand()[0]
        assert task.evaluation_json == "{}"
        # The content-hash payload omits empty evaluation parameters, so
        # records stored before the evaluator existed still resolve.
        sampled_spec = SweepSpec(
            name="t",
            config=default_config(num_nodes=40, rounds=2),
            protocols=("random",),
            evaluation={"mode": "sampled", "sample_size": 8},
        )
        assert (
            sampled_spec.expand()[0].content_hash() != task.content_hash()
        )

    def test_explicit_defaults_and_workers_are_hash_neutral(self):
        def task(evaluation):
            return SweepSpec(
                name="t",
                config=default_config(num_nodes=40, rounds=2),
                protocols=("random",),
                evaluation=evaluation,
            ).expand()[0]

        baseline = task({}).content_hash()
        for evaluation in (
            {"mode": "auto"},
            {"mode": "auto", "seed": 0, "chunk_size": 512},
        ):
            assert task(evaluation).content_hash() == baseline, evaluation
            assert task(evaluation).evaluation_json == "{}"
        sampled = {"mode": "sampled", "sample_size": 8}
        assert task(sampled).content_hash() != baseline

    @pytest.mark.parametrize(
        "evaluation",
        [
            {"bogus": 1},
            {"mode": "fastest"},
            {"workers": 2},
            {"target_se_ms": 1.0},
            {"sample_size": 0},
        ],
    )
    def test_invalid_evaluation_rejected_at_construction(self, evaluation):
        with pytest.raises(ValueError):
            SweepSpec(
                name="t",
                config=default_config(num_nodes=40, rounds=2),
                protocols=("random",),
                evaluation=evaluation,
            )

    def test_run_task_with_sampled_evaluation(self):
        spec = SweepSpec(
            name="t",
            config=default_config(num_nodes=40, rounds=2),
            protocols=("random",),
            evaluation={"mode": "sampled", "sample_size": 8},
        )
        record = run_task(spec.expand()[0])
        assert record.ok, record.error
        assert len(record.reach90) == 8
        assert len(record.reach50) == 8
        assert record.evaluation is not None
        assert record.evaluation["sampled"] is True
        assert len(record.evaluation["source_ids"]) == 8

    def test_run_task_default_records_no_evaluation_metadata(self):
        spec = SweepSpec(
            name="t",
            config=default_config(num_nodes=40, rounds=2),
            protocols=("random",),
        )
        record = run_task(spec.expand()[0])
        assert record.ok, record.error
        assert record.evaluation is None
        assert len(record.reach90) == 40


class TestReachTimesForSources:
    def test_rectangular_matches_square_rows(self):
        engine, network, population = build_environment()
        arrival = engine.all_sources_arrival_times(network)
        full = hash_power_reach_times(arrival, population.hash_power, 0.9)
        rows = np.array([3, 17, 40])
        partial = reach_times_for_sources(
            arrival[rows], population.hash_power, 0.9
        )
        assert np.array_equal(partial, full[rows])

    def test_empty_batch(self):
        empty = reach_times_for_sources(
            np.zeros((0, 5)), np.full(5, 0.2), 0.9
        )
        assert empty.shape == (0,)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            reach_times_for_sources(np.zeros((2, 3)), np.full(4, 0.25), 0.9)
        with pytest.raises(ValueError):
            reach_times_for_sources(np.zeros(3), np.full(3, 1 / 3), 0.9)

    def test_one_sorted_copy_and_identical_to_take_along_axis(self):
        rng = np.random.default_rng(0)
        arrival = rng.exponential(100.0, size=(256, 2000))
        arrival[rng.random(arrival.shape) < 0.01] = np.inf
        arrival[:, 0] = 0.0
        hash_power = rng.random(2000)
        hash_power /= hash_power.sum()
        before = arrival.tobytes()
        for target in (0.5, 0.9, 1.0):
            tracemalloc.start()
            try:
                reach = reach_times_for_sources(arrival, hash_power, target)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 2.5 * arrival.nbytes, (
                f"peak {peak / arrival.nbytes:.2f}x the arrival matrix"
            )
            expected = _take_along_axis_reach(arrival, hash_power, target)
            assert reach.dtype == expected.dtype
            assert reach.tobytes() == expected.tobytes()
        assert arrival.tobytes() == before


def _take_along_axis_reach(arrival, hash_power, target_fraction):
    """Reference: sort the times themselves, then index the sorted copy."""
    order = np.argsort(arrival, axis=1, kind="stable")
    sorted_times = np.take_along_axis(arrival, order, axis=1)
    cumulative = np.cumsum(hash_power[order], axis=1)
    totals = np.minimum(1.0, cumulative[:, -1] + 1e-12)
    targets = target_fraction * totals
    reached = np.sum(cumulative < targets[:, None] - 1e-12, axis=1)
    reached = np.minimum(reached, arrival.shape[1] - 1)
    return sorted_times[np.arange(arrival.shape[0]), reached].astype(float)


def test_evaluation_dataclass_reach_alignment():
    evaluation = DelayEvaluation(
        source_ids=np.array([1, 3]),
        target_fractions=(0.9, 0.5),
        reach_times_ms=np.array([[10.0, 20.0], [1.0, 2.0]]),
        num_nodes=4,
        sampled=False,
        standard_error_ms=(None, None),
    )
    assert np.array_equal(evaluation.reach(0.5), [1.0, 2.0])
    assert evaluation.median_ms(0.9) == 15.0
    assert evaluation.num_sources == 2
