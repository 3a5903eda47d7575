"""Convergence diagnostics for adaptive protocols.

Section 5.2 observes that Perigee's 90-percentile delays converge as rounds
progress (while 50-percentile delays need not be monotone, because the
protocol optimises the 90th percentile only).  This module turns a
per-round delay series — the ``delay`` entries of a flight recorder's round
rows, or explicit ``Simulator.evaluate`` calls between rounds — into a
compact convergence report, which ``perigee-sim inspect`` renders.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-round trajectory of a delay statistic.

    Attributes
    ----------
    rounds:
        Round indices at which the statistic was evaluated.
    values_ms:
        The statistic's value after each of those rounds.
    """

    rounds: tuple[int, ...]
    values_ms: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.rounds) != len(self.values_ms):
            raise ValueError("rounds and values_ms must have the same length")

    @property
    def num_points(self) -> int:
        return len(self.rounds)

    @property
    def initial_ms(self) -> float:
        if not self.values_ms:
            return float("nan")
        return self.values_ms[0]

    @property
    def final_ms(self) -> float:
        if not self.values_ms:
            return float("nan")
        return self.values_ms[-1]

    def total_improvement(self) -> float:
        """Relative reduction from the first to the last evaluated round."""
        if self.num_points < 2 or not np.isfinite(self.initial_ms) or self.initial_ms <= 0:
            return float("nan")
        return 1.0 - self.final_ms / self.initial_ms

    def is_improving(self, tolerance: float = 0.0) -> bool:
        """Whether the final value improves on the initial one by ``tolerance``."""
        if self.num_points < 2:
            return False
        return self.final_ms <= self.initial_ms * (1.0 - tolerance)

    def rounds_to_within(self, fraction: float = 0.05) -> int | None:
        """First round whose value is within ``fraction`` of the final value.

        Returns ``None`` when the trajectory never settles (or has fewer than
        two points).
        """
        if self.num_points < 2:
            return None
        final = self.final_ms
        if not np.isfinite(final) or final <= 0:
            return None
        for round_index, value in zip(self.rounds, self.values_ms):
            if np.isfinite(value) and abs(value - final) <= fraction * final:
                return round_index
        return None


def convergence_report(
    trajectory: list[tuple[int, float]]
) -> ConvergenceReport:
    """Build a report from (round, value) pairs (e.g. flight rows' delay p90)."""
    if not trajectory:
        return ConvergenceReport(rounds=(), values_ms=())
    rounds, values = zip(*trajectory)
    return ConvergenceReport(
        rounds=tuple(int(r) for r in rounds),
        values_ms=tuple(float(v) for v in values),
    )
