"""Integration tests for the experiment harness, figures and reporting."""

import numpy as np
import pytest

from repro.analysis.experiments import compare_protocols, run_experiment
from repro.analysis.figures import (
    delay_curve_series,
    error_bar_points,
    figure5_rows,
    improvement_table,
)
from repro.analysis.reporting import (
    format_table,
    render_experiment_report,
    render_sweep_report,
)
from repro.config import default_config

# Small sizes keep these integration tests quick; the benchmark harness runs
# the full-shape versions.
SMALL = dict(num_nodes=60, rounds=3, repeats=1, seed=1)


@pytest.fixture(scope="module")
def figure3a_result():
    return run_experiment(
        "figure3a",
        protocols=("random", "geographic", "perigee-subset", "ideal"),
        blocks_per_round=20,
        **SMALL,
    )


class TestCompareProtocols:
    def test_result_contains_all_protocols(self, figure3a_result):
        assert set(figure3a_result.protocol_names()) == {
            "random",
            "geographic",
            "perigee-subset",
            "ideal",
        }
        for curve in figure3a_result.curves.values():
            assert curve.num_nodes == SMALL["num_nodes"]

    def test_ideal_is_fastest(self, figure3a_result):
        ideal = figure3a_result.curves["ideal"].median_ms
        for name, curve in figure3a_result.curves.items():
            if name != "ideal":
                assert ideal <= curve.median_ms + 1e-9

    def test_50_percent_curves_not_slower_than_90(self, figure3a_result):
        for name in figure3a_result.curves:
            assert (
                figure3a_result.curves_50[name].median_ms
                <= figure3a_result.curves[name].median_ms + 1e-9
            )

    def test_improvement_accessor(self, figure3a_result):
        assert figure3a_result.improvement("ideal") > 0.2
        assert figure3a_result.improvement("random") == pytest.approx(0.0)

    def test_repeats_validation(self):
        config = default_config(num_nodes=30, rounds=1, blocks_per_round=5)
        with pytest.raises(ValueError):
            compare_protocols(config, ("random",), repeats=0)

    def test_compare_protocols_deterministic(self):
        config = default_config(num_nodes=40, rounds=2, blocks_per_round=10, seed=9)
        first = compare_protocols(config, ("random", "perigee-vanilla"))
        second = compare_protocols(config, ("random", "perigee-vanilla"))
        assert np.allclose(
            first.curves["perigee-vanilla"].sorted_delays_ms,
            second.curves["perigee-vanilla"].sorted_delays_ms,
        )


class TestFigureRunners:
    def test_figure3b_uses_exponential_hash_power(self):
        result = run_experiment(
            "figure3b",
            protocols=("random", "perigee-subset"),
            blocks_per_round=15,
            **SMALL,
        )
        assert result.config.hash_power_distribution == "exponential"
        assert set(result.protocol_names()) == {"random", "perigee-subset"}

    def test_figure4a_sweep_structure(self):
        sweep = run_experiment(
            "figure4a", scales=(0.5, 5.0), blocks_per_round=15, **SMALL
        )
        assert sweep.scales == (0.5, 5.0)
        improvements = sweep.improvements()
        assert set(improvements) == {0.5, 5.0}
        for scale, result in sweep.results.items():
            assert result.config.validation_delay_ms == pytest.approx(50.0 * scale)

    def test_figure4a_accepts_an_iterator_of_scales(self):
        sweep = run_experiment(
            "figure4a", scales=iter([0.5, 1.0]), blocks_per_round=10, **SMALL
        )
        assert sweep.scales == (0.5, 1.0)
        assert set(sweep.results) == {0.5, 1.0}

    def test_figure4a_rejects_duplicate_scales(self):
        with pytest.raises(ValueError, match="distinct"):
            run_experiment(
                "figure4a", scales=(1.0, 1.0), blocks_per_round=10, **SMALL
            )

    def test_figure4b_concentrated_hash_power(self):
        result = run_experiment(
            "figure4b",
            protocols=("random", "perigee-subset", "ideal"),
            blocks_per_round=15,
            **SMALL,
        )
        assert result.config.hash_power_distribution == "concentrated"
        assert result.curves["ideal"].median_ms <= result.curves["random"].median_ms

    def test_figure4c_relay_network(self):
        result = run_experiment(
            "figure4c",
            protocols=("random", "perigee-subset", "ideal"),
            blocks_per_round=15,
            relay_size=10,
            **SMALL,
        )
        assert set(result.protocol_names()) == {"random", "perigee-subset", "ideal"}

    def test_figure5_histograms_present(self):
        result = run_experiment(
            "figure5",
            num_nodes=60,
            rounds=3,
            seed=1,
            blocks_per_round=15,
            protocols=("random", "perigee-subset"),
        )
        assert set(result.histograms) == {"random", "perigee-subset"}
        rows = figure5_rows(result)
        assert len(rows) == 2

    def test_run_experiment_dispatch(self):
        result = run_experiment(
            "figure3a",
            protocols=("random", "ideal"),
            blocks_per_round=10,
            **SMALL,
        )
        assert result.name == "figure3a"
        with pytest.raises(KeyError):
            run_experiment("figure99")


class TestFiguresHelpers:
    def test_delay_curve_series_shape(self, figure3a_result):
        series = delay_curve_series(figure3a_result, num_points=5)
        assert set(series) == set(figure3a_result.protocol_names())
        for points in series.values():
            assert len(points) <= 5
            ranks = [rank for rank, _ in points]
            assert ranks == sorted(ranks)

    def test_delay_curve_series_p50(self, figure3a_result):
        series = delay_curve_series(figure3a_result, num_points=3, target="p50")
        assert set(series) == set(figure3a_result.protocol_names())
        with pytest.raises(ValueError):
            delay_curve_series(figure3a_result, target="p99")
        with pytest.raises(ValueError):
            delay_curve_series(figure3a_result, num_points=0)

    def test_improvement_table(self, figure3a_result):
        rows = improvement_table(figure3a_result)
        names = [row[0] for row in rows]
        assert set(names) == set(figure3a_result.protocol_names())
        baseline_row = next(row for row in rows if row[0] == "random")
        assert baseline_row[2] == pytest.approx(0.0)
        with pytest.raises(KeyError):
            improvement_table(figure3a_result, baseline="nonexistent")

    def test_error_bar_points(self, figure3a_result):
        curve = figure3a_result.curves["random"]
        points = error_bar_points(curve, count=4)
        assert len(points) == 4

    def test_figure5_rows_requires_histograms(self, figure3a_result):
        with pytest.raises(ValueError):
            figure5_rows(figure3a_result)


class TestReporting:
    def test_format_table_alignment(self):
        table = format_table(("a", "bb"), [("1", "2"), ("333", "4")])
        lines = table.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_render_experiment_report_mentions_protocols(self, figure3a_result):
        report = render_experiment_report(figure3a_result)
        for name in figure3a_result.protocol_names():
            assert name in report
        assert "experiment: figure3a" in report

    def test_render_sweep_report(self):
        sweep = run_experiment(
            "figure4a", scales=(1.0,), blocks_per_round=10, **SMALL
        )
        report = render_sweep_report(sweep)
        assert "1x" in report
        assert "perigee-subset" in report
