"""Block-propagation delay metrics (Section 2.2).

The paper's objective for every node ``v`` is ``λ_v``: the minimum overall
delay for a block mined and broadcast by ``v`` to reach nodes totalling at
least 90% of the network's hash power.  The evaluation additionally reports
the 50% variant and plots, per algorithm, the per-node delays sorted in
ascending order (Figures 3 and 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def reach_time_for_source(
    arrival_times: np.ndarray,
    hash_power: np.ndarray,
    target_fraction: float = 0.9,
) -> float:
    """Delay for one block to reach ``target_fraction`` of the hash power.

    Parameters
    ----------
    arrival_times:
        Arrival time at every node for a block from a single source (the
        source's own entry should be 0).
    hash_power:
        Per-node hash power shares (must sum to 1 up to rounding).
    target_fraction:
        Fraction of total hash power that must be reached (0.9 in the paper).

    Returns ``inf`` when the reachable nodes do not amount to the target
    fraction (disconnected overlay).
    """
    arrival_times = np.asarray(arrival_times, dtype=float)
    hash_power = np.asarray(hash_power, dtype=float)
    if arrival_times.shape != hash_power.shape:
        raise ValueError("arrival_times and hash_power must have the same shape")
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError("target_fraction must be in (0, 1]")
    order = np.argsort(arrival_times, kind="stable")
    sorted_times = arrival_times[order]
    cumulative_power = np.cumsum(hash_power[order])
    # Tolerate tiny normalisation error in the hash power vector.
    target = target_fraction * min(1.0, float(cumulative_power[-1]) + 1e-12)
    reached = np.searchsorted(cumulative_power, target - 1e-12)
    if reached >= sorted_times.size:
        reached = sorted_times.size - 1
    time_at_target = sorted_times[reached]
    if not np.isfinite(time_at_target):
        return float("inf")
    return float(time_at_target)


def hash_power_reach_times(
    all_pairs_arrival: np.ndarray,
    hash_power: np.ndarray,
    target_fraction: float = 0.9,
) -> np.ndarray:
    """Vectorised ``λ_v`` for every node ``v`` as a block source.

    Parameters
    ----------
    all_pairs_arrival:
        ``(N, N)`` matrix where row ``s`` holds the arrival time at every node
        of a block mined by ``s``.
    hash_power:
        Per-node hash power shares.
    target_fraction:
        Fraction of total hash power that must be reached.
    """
    arrival = np.asarray(all_pairs_arrival, dtype=float)
    if arrival.ndim != 2 or arrival.shape[0] != arrival.shape[1]:
        raise ValueError("all_pairs_arrival must be a square matrix")
    return reach_times_for_sources(arrival, hash_power, target_fraction)


def reach_times_for_sources(
    arrival: np.ndarray,
    hash_power: np.ndarray,
    target_fraction: float = 0.9,
) -> np.ndarray:
    """``λ`` for an arbitrary batch of block sources.

    The rectangular core behind :func:`hash_power_reach_times`: ``arrival``
    is ``(S, N)`` — one row per evaluated source, columns covering the whole
    receiver population — so chunked and sampled evaluations can process a
    handful of sources at a time without ever holding the ``N x N`` matrix.
    Row-wise results are identical to the square all-pairs path.
    """
    arrival = np.asarray(arrival, dtype=float)
    hash_power = np.asarray(hash_power, dtype=float)
    if arrival.ndim != 2:
        raise ValueError("arrival must be a 2-D (sources, nodes) matrix")
    if arrival.shape[1] != hash_power.shape[0]:
        raise ValueError("hash_power length must match the arrival columns")
    if not 0.0 < target_fraction <= 1.0:
        raise ValueError("target_fraction must be in (0, 1]")
    if arrival.shape[0] == 0:
        return np.zeros(0, dtype=float)
    order = np.argsort(arrival, axis=1, kind="stable")
    # Cumulative hash power in arrival order, accumulated in place over the
    # one gathered copy: the evaluator's largest transient is this matrix.
    cumulative = hash_power[order]
    np.cumsum(cumulative, axis=1, out=cumulative)
    totals = np.minimum(1.0, cumulative[:, -1] + 1e-12)
    targets = target_fraction * totals
    # For each row, the first column index where cumulative power >= target.
    reached = np.sum(cumulative < targets[:, None] - 1e-12, axis=1)
    reached = np.minimum(reached, arrival.shape[1] - 1)
    rows = np.arange(arrival.shape[0])
    return arrival[rows, order[rows, reached]]


@dataclass(frozen=True)
class DelayCurve:
    """Sorted per-node delay curve, the y-values of Figures 3 and 4.

    Attributes
    ----------
    protocol:
        Protocol name the curve belongs to.
    sorted_delays_ms:
        Per-source reach times sorted ascending (one entry per node).
    target_fraction:
        Hash power fraction the delays refer to.
    """

    protocol: str
    sorted_delays_ms: np.ndarray
    target_fraction: float

    @property
    def num_nodes(self) -> int:
        return int(self.sorted_delays_ms.size)

    def percentile(self, q: float) -> float:
        """Percentile of the per-node delay distribution."""
        finite = self.sorted_delays_ms[np.isfinite(self.sorted_delays_ms)]
        if finite.size == 0:
            return float("inf")
        return float(np.percentile(finite, q))

    @property
    def median_ms(self) -> float:
        return self.percentile(50.0)

    @property
    def mean_ms(self) -> float:
        finite = self.sorted_delays_ms[np.isfinite(self.sorted_delays_ms)]
        if finite.size == 0:
            return float("inf")
        return float(finite.mean())

    def value_at_node_rank(self, rank: int) -> float:
        """Delay of the ``rank``-th node in the sorted curve (0-based).

        The paper quotes comparisons "at the 500th node" of the sorted curve;
        this accessor makes those comparisons explicit.
        """
        if not 0 <= rank < self.sorted_delays_ms.size:
            raise IndexError("rank out of range")
        return float(self.sorted_delays_ms[rank])

    def error_bar_ranks(self, count: int = 5) -> list[int]:
        """Ranks at which the paper draws error bars (100th, 300th, ... node)."""
        if count < 1:
            raise ValueError("count must be positive")
        n = self.sorted_delays_ms.size
        step = max(1, n // (count + 1))
        return [min(n - 1, step * (i + 1)) for i in range(count)]


def delay_curve(
    reach_times_ms: np.ndarray, protocol: str, target_fraction: float = 0.9
) -> DelayCurve:
    """Build a :class:`DelayCurve` from raw per-source reach times."""
    values = np.sort(np.asarray(reach_times_ms, dtype=float))
    return DelayCurve(
        protocol=protocol,
        sorted_delays_ms=values,
        target_fraction=target_fraction,
    )


def improvement_over_baseline(
    candidate: DelayCurve, baseline: DelayCurve, statistic: str = "median"
) -> float:
    """Relative improvement of ``candidate`` over ``baseline``.

    A value of 0.33 means the candidate's delay is 33% lower than the
    baseline's — the headline statistic the paper reports for Perigee-Subset
    versus the random topology.

    Parameters
    ----------
    statistic:
        ``"median"``, ``"mean"`` or ``"p90"`` — which summary of the per-node
        curve to compare.
    """
    selectors = {
        "median": lambda curve: curve.median_ms,
        "mean": lambda curve: curve.mean_ms,
        "p90": lambda curve: curve.percentile(90.0),
    }
    if statistic not in selectors:
        raise ValueError(f"unknown statistic: {statistic!r}")
    candidate_value = selectors[statistic](candidate)
    baseline_value = selectors[statistic](baseline)
    if not np.isfinite(baseline_value) or baseline_value <= 0:
        raise ValueError("baseline statistic must be finite and positive")
    return float(1.0 - candidate_value / baseline_value)
