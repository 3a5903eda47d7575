"""Tests for the bandwidth-heterogeneity and scaling studies."""

import numpy as np
import pytest

from repro.analysis.bandwidth import (
    BandwidthExperimentResult,
    run_bandwidth_experiment,
)
from repro.analysis.experiments import compare_protocols, run_experiment
from repro.config import default_config


class TestBandwidthExperiment:
    @pytest.fixture(scope="class")
    def results(self):
        return run_bandwidth_experiment(
            num_nodes=100,
            slow_fraction=0.2,
            rounds=8,
            blocks_per_round=30,
            seed=0,
        )

    def test_both_protocols_reported(self, results):
        assert set(results) == {"random", "perigee-subset"}
        for outcome in results.values():
            assert np.isfinite(outcome.median_delay_ms)
            assert outcome.slow_node_fraction == pytest.approx(0.2)

    def test_perigee_beats_random_under_bandwidth_heterogeneity(self, results):
        assert (
            results["perigee-subset"].median_delay_ms
            < results["random"].median_delay_ms
        )

    def test_perigee_avoids_slow_uplink_peers(self, results):
        # Random connects to slow nodes at roughly their population rate;
        # Perigee under-selects them.
        assert results["random"].avoidance == pytest.approx(1.0, abs=0.35)
        assert (
            results["perigee-subset"].slow_node_outgoing_share
            < results["random"].slow_node_outgoing_share
        )
        assert results["perigee-subset"].avoidance < 0.85

    def test_result_avoidance_handles_zero_fraction(self):
        outcome = BandwidthExperimentResult(
            protocol="x",
            median_delay_ms=1.0,
            slow_node_outgoing_share=0.0,
            slow_node_fraction=0.0,
        )
        assert np.isnan(outcome.avoidance)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"slow_fraction": 0.0},
            {"slow_fraction": 1.0},
            {"slow_mbps": 0.0},
            {"slow_mbps": 50.0, "fast_mbps": 10.0},
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            run_bandwidth_experiment(num_nodes=40, rounds=1, **kwargs)


class TestScalingStudies:
    def test_rounds_scaling_improvement_grows(self):
        results = [
            compare_protocols(
                default_config(
                    num_nodes=120, rounds=rounds, blocks_per_round=30, seed=0
                ),
                ("random", "perigee-subset"),
            )
            for rounds in (2, 10)
        ]
        assert [result.config.rounds for result in results] == [2, 10]
        # Random is not adaptive: both points share the same baseline.
        assert (
            results[0].curves["random"].median_ms
            == results[1].curves["random"].median_ms
        )
        first, last = (result.improvement("perigee-subset") for result in results)
        assert last >= first - 0.02

    def test_size_scaling_returns_sorted_sizes(self):
        result = run_experiment(
            "scaling", sizes=(120, 60), rounds=4, blocks_per_round=20, seed=2
        )
        assert result.sizes == (60, 120)
        for improvement in result.improvements().values():
            assert np.isfinite(improvement)

    def test_invalid_grids_rejected(self):
        # The round-count axis is one config per count; the size axis is the
        # registered ``scaling`` grid.
        with pytest.raises(ValueError):
            default_config(num_nodes=60, rounds=0)
        with pytest.raises(ValueError):
            run_experiment("scaling", sizes=())
        with pytest.raises(ValueError):
            run_experiment("scaling", sizes=(0,), rounds=2, blocks_per_round=5)
