"""Neighbor scoring functions (Sections 4.2 and 4.3).

All Perigee variants share the same skeleton (Algorithm 1) and differ only in
how they turn a node's observation set into scores.  The three scoring
methods live here as standalone, unit-testable functions:

* :func:`vanilla_scores` — the 90th percentile of each neighbor's relative
  delivery timestamps within a round (Section 4.2.1).
* :func:`ucb_scores` — percentile estimates plus upper/lower confidence
  bounds computed over a neighbor's whole connection history
  (Section 4.2.2, Equations 3 and 4).
* :func:`greedy_subset_selection` — the greedy complement-aware group
  selection of Section 4.3.

Every scoring method is array-native: the hot path operates on a
``(neighbors, blocks)`` timestamp block (one NumPy pass per node, no
Python-level loop over observations), and the ``ObservationSet``-based
signatures convert once via
:meth:`~repro.core.observations.ObservationSet.times_block` and delegate.
The ``*_block`` variants are what the Perigee protocols feed directly from
:class:`~repro.core.observations.RoundObservations` views.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.observations import (
    NEVER,
    ObservationSet,
    percentile_score,
    percentile_scores,
)

__all__ = [
    "SCORE_PERCENTILE",
    "DEFAULT_UCB_CONSTANT",
    "ConfidenceInterval",
    "confidence_interval",
    "confidence_intervals_stacked",
    "greedy_subset_selection",
    "greedy_subset_selection_batch",
    "greedy_subset_selection_block",
    "group_score",
    "percentile_score",
    "ucb_eviction_candidate",
    "ucb_scores",
    "vanilla_scores",
]

#: Percentile used throughout the paper's scoring functions.
SCORE_PERCENTILE = 90.0

#: Default exploration constant ``c`` of the UCB confidence bounds.
DEFAULT_UCB_CONSTANT = 60.0


def vanilla_scores(
    observations: ObservationSet,
    neighbors: set[int] | frozenset[int],
    percentile: float = SCORE_PERCENTILE,
) -> dict[int, float]:
    """Per-neighbor VanillaScoring scores (lower is better).

    ``observations`` must already be time-normalised (Equation 2); the Perigee
    protocols normalise before calling.  Neighbors with no observations score
    infinity.
    """
    ordered = sorted(int(neighbor) for neighbor in neighbors)
    times = observations.times_block(ordered)
    scores = percentile_scores(times, percentile)
    return {neighbor: float(score) for neighbor, score in zip(ordered, scores)}


@dataclass(frozen=True)
class ConfidenceInterval:
    """UCB scoring output for one neighbor (Equations 3 and 4)."""

    estimate: float
    lower: float
    upper: float
    samples: int

    def __post_init__(self) -> None:
        if self.samples < 0:
            raise ValueError("samples must be non-negative")
        if (
            math.isfinite(self.lower)
            and math.isfinite(self.upper)
            and self.lower > self.upper + 1e-9
        ):
            raise ValueError("lower bound cannot exceed upper bound")


def _half_width(samples: int, exploration_constant: float) -> float:
    """Equation-4 half width for ``samples`` finite observations."""
    if samples >= 2:
        return exploration_constant * math.sqrt(
            math.log(samples) / (2.0 * samples)
        )
    # A single sample carries essentially no information; use a very wide
    # interval so one lucky/unlucky block cannot trigger an eviction.
    return exploration_constant * math.sqrt(math.log(2.0) / 2.0) * 4.0


def _linear_percentile_rows(stacked: np.ndarray, percentile: float) -> np.ndarray:
    """Row-wise ``np.percentile(..., axis=1)`` with the 'linear' method.

    Replicates NumPy's virtual-index / partition / lerp arithmetic exactly
    (same operations, same rounding) while skipping its generic dispatch
    overhead — UCB scoring calls this once per history-length group per node,
    so the per-call constant matters.  Bitwise equality with
    ``np.percentile`` is pinned by the parity test suite.
    """
    count = stacked.shape[1]
    virtual = (count - 1) * (percentile / 100.0)
    previous = int(math.floor(virtual))
    following = min(previous + 1, count - 1)
    previous = min(previous, count - 1)
    gamma = virtual - previous
    part = np.partition(stacked, (previous, following), axis=1)
    low = part[:, previous]
    high = part[:, following]
    diff = high - low
    if gamma >= 0.5:
        return high - diff * (1.0 - gamma)
    return low + diff * gamma


def confidence_intervals_stacked(
    histories: Sequence[Sequence[float] | np.ndarray],
    percentile: float = SCORE_PERCENTILE,
    exploration_constant: float = DEFAULT_UCB_CONSTANT,
) -> list[ConfidenceInterval]:
    """Confidence intervals for many sample histories at once.

    Histories are filtered to their finite samples, grouped by length, and
    each group's percentile estimates are computed in one stacked
    ``np.percentile`` call — neighbors with equally long histories (the
    common case, since connected neighbors accumulate samples in lockstep)
    share a single NumPy pass.  Returns one interval per input history, in
    order; with no finite samples the estimate and both bounds are infinite,
    which makes a silent neighbor the most eviction-worthy candidate.
    """
    finite_rows: list[np.ndarray] = []
    for samples in histories:
        row = np.asarray(samples, dtype=float)
        finite_rows.append(row[np.isfinite(row)])
    intervals: list[ConfidenceInterval | None] = [None] * len(finite_rows)
    by_length: dict[int, list[int]] = {}
    for index, row in enumerate(finite_rows):
        by_length.setdefault(row.size, []).append(index)
    for length, indices in by_length.items():
        if length == 0:
            for index in indices:
                intervals[index] = ConfidenceInterval(
                    estimate=NEVER, lower=NEVER, upper=NEVER, samples=0
                )
            continue
        stacked = np.stack([finite_rows[index] for index in indices])
        estimates = _linear_percentile_rows(stacked, percentile)
        half_width = _half_width(length, exploration_constant)
        for index, estimate in zip(indices, estimates):
            value = float(estimate)
            intervals[index] = ConfidenceInterval(
                estimate=value,
                lower=value - half_width,
                upper=value + half_width,
                samples=length,
            )
    return intervals  # type: ignore[return-value]


def confidence_interval(
    samples: list[float] | np.ndarray,
    percentile: float = SCORE_PERCENTILE,
    exploration_constant: float = DEFAULT_UCB_CONSTANT,
) -> ConfidenceInterval:
    """Percentile estimate with UCB-style confidence bounds.

    Follows Equations (3) and (4): the half-width is
    ``c * sqrt(log(m) / (2 m))`` where ``m`` is the number of finite samples.
    With no finite samples the estimate and both bounds are infinite, which
    makes a silent neighbor the most eviction-worthy candidate.
    """
    return confidence_intervals_stacked(
        [samples], percentile, exploration_constant
    )[0]


def ucb_scores(
    history: dict[int, list[float]],
    percentile: float = SCORE_PERCENTILE,
    exploration_constant: float = DEFAULT_UCB_CONSTANT,
) -> dict[int, ConfidenceInterval]:
    """Confidence intervals for every neighbor given its sample history.

    ``history`` maps each neighbor to the multiset of finite relative
    timestamps accumulated over the rounds it has been connected
    (``≈T_{u,v}`` in the paper).
    """
    neighbors = list(history)
    intervals = confidence_intervals_stacked(
        [history[neighbor] for neighbor in neighbors],
        percentile,
        exploration_constant,
    )
    return dict(zip(neighbors, intervals))


def ucb_eviction_candidate(
    intervals: dict[int, ConfidenceInterval]
) -> int | None:
    """The neighbor to evict under UCBScoring, or ``None`` to keep everyone.

    A neighbor is evicted when ``max_u lcb(u) > min_u ucb(u)``: some
    neighbor's optimistic bound is still worse than another neighbor's
    pessimistic bound, so we are confident it is the worst.  The evicted
    neighbor is ``argmax lcb``.
    """
    if len(intervals) < 2:
        return None
    worst_neighbor = None
    worst_lower = -math.inf
    best_upper = math.inf
    for neighbor in sorted(intervals):
        interval = intervals[neighbor]
        if interval.lower > worst_lower:
            worst_lower = interval.lower
            worst_neighbor = neighbor
        best_upper = min(best_upper, interval.upper)
    if worst_neighbor is not None and worst_lower > best_upper:
        return worst_neighbor
    return None


def greedy_subset_selection_block(
    neighbors: np.ndarray,
    times: np.ndarray,
    subset_size: int,
    percentile: float = SCORE_PERCENTILE,
) -> list[int]:
    """Array-native greedy complement-aware selection (Section 4.3).

    ``neighbors`` is an ascending id array and ``times`` the matching
    ``(k, B)`` normalised timestamp block.  Each greedy step evaluates every
    remaining neighbor's transformed multiset
    ``min(t̃_{u,v}, min_{i<=k} t̃_{u_i,v})`` in one vectorised pass.  Ties
    resolve to the lowest neighbor id, matching the dict-based
    implementation bit for bit.
    """
    if subset_size < 0:
        raise ValueError("subset_size must be non-negative")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    neighbors = np.asarray(neighbors, dtype=np.int64)
    times = np.asarray(times, dtype=float)
    if times.shape[0] != neighbors.size:
        raise ValueError("times must have one row per neighbor")
    if subset_size == 0 or neighbors.size == 0:
        return []
    num_blocks = times.shape[1]
    if num_blocks == 0:
        # No observed blocks: every score is infinite and so is every
        # finite-sample mean, so the fallback fills the budget in ascending
        # neighbor-id order.
        return [int(peer) for peer in neighbors[: subset_size]]
    # Interpolation anchors of the percentile are fixed by the block count,
    # so they are hoisted out of the greedy loop (percentile_scores computes
    # the identical formula per row).
    rank = percentile / 100.0 * (num_blocks - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    weight = rank - lower
    candidates = list(range(neighbors.size))
    group_best = np.full(num_blocks, NEVER, dtype=float)
    selected: list[int] = []
    while candidates and len(selected) < subset_size:
        transformed = np.minimum(times[candidates], group_best[None, :])
        transformed.partition((lower, upper), axis=1)
        low = transformed[:, lower]
        high = transformed[:, upper]
        finite = np.isfinite(low) & np.isfinite(high)
        if finite.any():
            if lower == upper:
                scores = np.where(finite, low, NEVER)
            else:
                scores = np.where(
                    finite, low * (1.0 - weight) + high * weight, NEVER
                )
            local = int(np.argmin(scores))
        else:
            # Every remaining neighbor has an infinite score (e.g. none of
            # them delivered enough blocks).  Fall back to picking the one
            # with the smallest finite-sample mean so the group still fills
            # up deterministically.
            means = np.array(
                [_finite_mean(times[index]) for index in candidates]
            )
            local = int(np.argmin(means))
        pick = candidates.pop(local)
        selected.append(int(neighbors[pick]))
        group_best = np.minimum(times[pick], group_best)
    return selected


def greedy_subset_selection_batch(
    neighbors: Sequence[np.ndarray],
    times: Sequence[np.ndarray],
    subset_size: int,
    percentile: float = SCORE_PERCENTILE,
) -> list[list[int]]:
    """:func:`greedy_subset_selection_block` for many nodes at once.

    Returns ``[greedy_subset_selection_block(n, t, subset_size, percentile)
    for n, t in zip(neighbors, times)]`` bit for bit.  Nodes are grouped by
    the shape ``(k, B)`` of their timestamp block and each group's greedy
    runs on one ``(nodes, k, B)`` tensor: a step transforms, partitions and
    scores every node's remaining candidates together, with already-picked
    candidates masked out.  Nodes whose remaining candidates all score
    infinity take the same finite-mean fallback as the one-node greedy.
    """
    if subset_size < 0:
        raise ValueError("subset_size must be non-negative")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    if len(neighbors) != len(times):
        raise ValueError("neighbors and times must align")
    picks: list[list[int]] = [[] for _ in neighbors]
    groups: dict[tuple[int, ...], list[int]] = {}
    for index, (ids, block) in enumerate(zip(neighbors, times)):
        shape = np.shape(block)
        if len(shape) != 2 or shape[0] != len(ids):
            raise ValueError("times must have one row per neighbor")
        groups.setdefault(shape, []).append(index)
    for (num_neighbors, num_blocks), members in groups.items():
        steps = min(subset_size, num_neighbors)
        if steps == 0:
            continue
        ids = np.stack([np.asarray(neighbors[i], dtype=np.int64) for i in members])
        if num_blocks == 0:
            # See greedy_subset_selection_block: ascending-id fallback.
            for index, row in zip(members, ids[:, :steps].tolist()):
                picks[index] = row
            continue
        stacked = np.stack([np.asarray(times[i], dtype=float) for i in members])
        rank = percentile / 100.0 * (num_blocks - 1)
        lower = int(math.floor(rank))
        upper = int(math.ceil(rank))
        weight = rank - lower
        rows = np.arange(len(members))
        available = np.ones((len(members), num_neighbors), dtype=bool)
        group_best = np.full((len(members), num_blocks), NEVER, dtype=float)
        chosen = np.empty((len(members), steps), dtype=np.int64)
        for step in range(steps):
            transformed = np.minimum(stacked, group_best[:, None, :])
            transformed.partition((lower, upper), axis=2)
            low = transformed[:, :, lower]
            high = transformed[:, :, upper]
            finite = np.isfinite(low) & np.isfinite(high) & available
            if lower == upper:
                scores = np.where(finite, low, NEVER)
            else:
                scores = np.where(
                    finite, low * (1.0 - weight) + high * weight, NEVER
                )
            local = np.argmin(scores, axis=1)
            for row in np.flatnonzero(~finite.any(axis=1)).tolist():
                candidates = np.flatnonzero(available[row])
                means = np.array(
                    [_finite_mean(stacked[row, index]) for index in candidates]
                )
                local[row] = candidates[int(np.argmin(means))]
            chosen[:, step] = local
            available[rows, local] = False
            group_best = np.minimum(stacked[rows, local], group_best)
        selected = np.take_along_axis(ids, chosen, axis=1)
        for index, row in zip(members, selected.tolist()):
            picks[index] = row
    return picks


def greedy_subset_selection(
    observations: ObservationSet,
    neighbors: set[int] | frozenset[int],
    subset_size: int,
    percentile: float = SCORE_PERCENTILE,
) -> list[int]:
    """SubsetScoring's greedy complement-aware neighbor selection (Section 4.3).

    The first neighbor picked is the one with the best individual percentile
    score.  Each subsequent pick minimises the percentile of the *transformed*
    timestamps ``min(t̃_{u,v}, min_{i<=k} t̃_{u_i,v})`` — i.e. a neighbor is
    only credited for blocks it would deliver faster than the group selected
    so far, so picks complement each other rather than duplicating coverage of
    the same fast region.

    Returns the selected neighbors in pick order (length ``<= subset_size``).
    """
    if subset_size < 0:
        raise ValueError("subset_size must be non-negative")
    ordered = np.array(
        sorted({int(neighbor) for neighbor in neighbors}), dtype=np.int64
    )
    if subset_size == 0 or ordered.size == 0:
        return []
    times = observations.times_block(ordered)
    return greedy_subset_selection_block(ordered, times, subset_size, percentile)


def _finite_mean(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return math.inf
    return float(finite.mean())


def group_score(
    observations: ObservationSet,
    group: list[int] | set[int],
    percentile: float = SCORE_PERCENTILE,
) -> float:
    """Joint score of a neighbor group: the percentile of per-block best delivery.

    This is the quantity SubsetScoring approximately optimises — the maximum
    delay taken by the group as a whole to forward 90% of blocks.
    """
    members = sorted({int(member) for member in group})
    if not members:
        return NEVER
    times = observations.times_block(members)
    if times.shape[1] == 0:
        return percentile_score([], percentile)
    best = np.min(times, axis=0)
    return percentile_score(best, percentile)
