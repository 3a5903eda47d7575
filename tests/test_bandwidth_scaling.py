"""Tests for the scaling studies: by round count and by network size."""

import numpy as np
import pytest

from repro.analysis.experiments import compare_protocols, run_experiment
from repro.config import default_config


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
