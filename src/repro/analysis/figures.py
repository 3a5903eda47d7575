"""Turn experiment outputs into the series / rows the paper plots.

The paper's figures plot, for each protocol, the per-node delays sorted in
ascending order with error bars at the 100th, 300th, ..., 900th node.  These
helpers downsample the curves into exactly those series, produce the
improvement tables quoted in the text (e.g. "Perigee-Subset achieves around
33% lower delay than random"), and flatten the Figure 5 histograms into
printable rows.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.delay import DelayCurve
from repro.runtime.aggregate import ExperimentResult


def delay_curve_series(
    result: ExperimentResult,
    num_points: int = 10,
    target: str = "p90",
) -> dict[str, list[tuple[int, float]]]:
    """Downsample each protocol's sorted delay curve to ``num_points`` markers.

    Returns a mapping ``protocol -> [(node_rank, delay_ms), ...]`` — the
    series one would plot to recreate Figures 3 and 4.

    Parameters
    ----------
    target:
        ``"p90"`` (default) uses the 90%-hash-power curves, ``"p50"`` the
        50% ones.
    """
    if num_points < 1:
        raise ValueError("num_points must be positive")
    if target not in ("p90", "p50"):
        raise ValueError("target must be 'p90' or 'p50'")
    curves = result.curves if target == "p90" else result.curves_50
    series: dict[str, list[tuple[int, float]]] = {}
    for protocol, curve in curves.items():
        n = curve.num_nodes
        ranks = np.unique(
            np.clip(np.linspace(0, n - 1, num_points).astype(int), 0, n - 1)
        )
        series[protocol] = [
            (int(rank), float(curve.sorted_delays_ms[rank])) for rank in ranks
        ]
    return series


def improvement_table(
    result: ExperimentResult,
    baseline: str = "random",
    statistic: str = "median",
) -> list[tuple[str, float, float]]:
    """Per-protocol summary: (protocol, statistic value, improvement vs baseline).

    The improvement is the relative delay reduction (positive = better than
    the baseline).  The baseline row has improvement 0 by construction.
    """
    if baseline not in result.curves:
        raise KeyError(f"baseline {baseline!r} missing from the experiment result")
    rows: list[tuple[str, float, float]] = []
    for protocol in result.curves:
        value = _statistic(result.curves[protocol], statistic)
        improvement = result.improvement(protocol, baseline, statistic)
        rows.append((protocol, value, improvement))
    return rows


def _statistic(curve: DelayCurve, statistic: str) -> float:
    if statistic == "median":
        return curve.median_ms
    if statistic == "mean":
        return curve.mean_ms
    if statistic == "p90":
        return curve.percentile(90.0)
    raise ValueError(f"unknown statistic: {statistic!r}")


def figure5_rows(result: ExperimentResult) -> list[tuple[str, float, float, float]]:
    """Flatten the Figure 5 histograms into summary rows.

    Each row is ``(protocol, mean edge latency, median edge latency, fraction
    of edges in the low/intra-continental mode)``.  The qualitative claim of
    Section 5.5 translates into Perigee-Subset having the largest low-mode
    fraction of the compared protocols.
    """
    if not result.histograms:
        raise ValueError("the experiment result carries no histograms")
    rows = []
    for protocol, histogram in result.histograms.items():
        rows.append(
            (
                protocol,
                histogram.mean_ms,
                histogram.median_ms,
                histogram.low_mode_fraction,
            )
        )
    return rows


def error_bar_points(
    curve: DelayCurve, count: int = 5
) -> list[tuple[int, float]]:
    """The paper's error-bar positions (100th, 300th, ... node) for one curve."""
    return [
        (rank, curve.value_at_node_rank(rank))
        for rank in curve.error_bar_ranks(count)
    ]
