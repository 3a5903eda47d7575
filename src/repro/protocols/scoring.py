"""Neighbor scoring rules (Sections 4.2 and 4.3).

All Perigee variants share the same skeleton (Algorithm 1) and differ only in
how they turn a node's observation set into scores.  Each rule has one
implementation, the one rounds run:

* Vanilla's percentile (Section 4.2.1) —
  :func:`~repro.core.observations.percentile_scores`, the 90th percentile of
  each neighbor's relative delivery timestamps within a round.
* UCB's confidence bounds (Section 4.2.2, Equations 3 and 4) —
  :func:`confidence_bounds`, the percentile estimate of each neighbor's whole
  connection history with its lower and upper bounds.  UCB's eviction rule
  is applied to those bounds inside
  :meth:`~repro.protocols.perigee.ucb.PerigeeUCBProtocol.select_retained_batch`.
* Subset's greedy group selection (Section 4.3) —
  :func:`greedy_subset_selection_batch`.

Every rule is array-native and scores many nodes at once: it operates on
``(neighbors, blocks)`` timestamp blocks sliced out of
:class:`~repro.core.observations.RoundObservations`, with no Python-level
loop over observations.  All three score by a linear percentile, and all
three find its two interpolation anchors with
:func:`~repro.core.observations.order_statistics`: one single-kth partition
plus a ``max``.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.core.observations import NEVER, order_statistics

__all__ = [
    "SCORE_PERCENTILE",
    "DEFAULT_UCB_CONSTANT",
    "confidence_bounds",
    "greedy_subset_selection_batch",
]

#: Percentile used throughout the paper's scoring functions.
SCORE_PERCENTILE = 90.0

#: Default exploration constant ``c`` of the UCB confidence bounds.
DEFAULT_UCB_CONSTANT = 60.0

#: Most samples stacked into one percentile pass by :func:`confidence_bounds`
#: (8 MB of float64), so long histories never stack a whole chunk at once.
STACK_SAMPLES = 1 << 20


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

    Replicates NumPy's virtual-index / order-statistic / lerp arithmetic
    exactly (same operations, same rounding) while skipping its generic
    dispatch overhead — UCB scoring calls this once per history-length group
    per scoring chunk, so the per-call constant matters.  The two anchors
    come from :func:`~repro.core.observations.order_statistics`.  Bitwise
    equality with ``np.percentile`` is pinned by the parity test suite.
    ``stacked`` is partitioned in place (each row's samples are reordered),
    which saves a copy of the slab; pass an array the caller no longer needs.
    """
    count = stacked.shape[1]
    virtual = (count - 1) * (percentile / 100.0)
    previous = int(math.floor(virtual))
    following = min(previous + 1, count - 1)
    previous = min(previous, count - 1)
    gamma = virtual - previous
    low, high = order_statistics(stacked, previous, following)
    diff = high - low
    if gamma >= 0.5:
        return high - diff * (1.0 - gamma)
    return low + diff * gamma


def confidence_bounds(
    histories: Sequence[np.ndarray],
    percentile: float = SCORE_PERCENTILE,
    exploration_constant: float = DEFAULT_UCB_CONSTANT,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Equation-3/4 ``(estimate, lower, upper)`` arrays, one per history.

    Each history holds a neighbor's finite relative timestamps (``≈T_{u,v}``
    in the paper); callers drop ``inf`` samples before storing them.  The
    estimate is the history's ``percentile`` (NumPy's linear method) and the
    bounds are ``estimate ∓ c * sqrt(log(m) / (2 m))`` for ``m`` samples.
    An empty history gets an infinite estimate and bounds, which makes a
    silent neighbor the most eviction-worthy candidate.  Equally long
    histories share one stacked percentile pass, in slabs of at most
    :data:`STACK_SAMPLES` samples.
    """
    lengths = np.array([len(samples) for samples in histories], dtype=np.int64)
    estimate = np.full(lengths.size, NEVER, dtype=float)
    lower = estimate.copy()
    upper = estimate.copy()
    for length in np.unique(lengths[lengths > 0]).tolist():
        indices = np.flatnonzero(lengths == length)
        half_width = _half_width(length, exploration_constant)
        slab = max(1, STACK_SAMPLES // length)
        for offset in range(0, indices.size, slab):
            part = indices[offset : offset + slab]
            values = _linear_percentile_rows(
                np.stack([histories[index] for index in part]), percentile
            )
            estimate[part] = values
            lower[part] = values - half_width
            upper[part] = values + half_width
    return estimate, lower, upper


def greedy_subset_selection_batch(
    neighbors: Sequence[np.ndarray],
    times: Sequence[np.ndarray],
    subset_size: int,
    percentile: float = SCORE_PERCENTILE,
) -> list[list[int]]:
    """Subset's greedy complement-aware selection (Section 4.3), many nodes at once.

    ``neighbors[i]`` is node ``i``'s ascending id array and ``times[i]`` the
    matching ``(k, B)`` normalised timestamp block.  Each node picks up to
    ``subset_size`` neighbors, one per step:

    * the first pick is the neighbor with the best individual percentile
      score;
    * each later pick minimises the percentile of the *transformed*
      timestamps ``min(t̃_{u,v}, min_{i<=k} t̃_{u_i,v})``, so a neighbor is
      only credited for blocks it delivers faster than the group selected
      so far;
    * ties resolve to the lowest neighbor id;
    * when every remaining neighbor scores infinity (none delivered enough
      blocks), the step picks the smallest mean over its finite samples
      instead, again lowest id first, so the group still fills up;
    * with zero blocks the picks are the lowest ids in ascending order.

    Returns each node's picks in pick order.  Nodes are grouped by the shape
    ``(k, B)`` of their block and each group's greedy runs on one
    ``(nodes, k, B)`` tensor: a step transforms, partitions and scores every
    node's remaining candidates together, and each pick is removed from the
    tensor, so later steps partition fewer rows.
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
            # No observed blocks: every score and every finite-sample mean
            # is infinite, so the fallback picks ascending ids.
            for index, row in zip(members, ids[:, :steps].tolist()):
                picks[index] = row
            continue
        stacked = np.stack([np.asarray(times[i], dtype=float) for i in members])
        rank = percentile / 100.0 * (num_blocks - 1)
        lower = int(math.floor(rank))
        upper = int(math.ceil(rank))
        weight = rank - lower
        rows = np.arange(len(members))
        # positions[i, j]: the neighbor index of node i's j-th remaining
        # candidate.  Each pick leaves the tensor, so step s partitions only
        # the k - s candidates left, still in ascending id order.
        positions = np.tile(np.arange(num_neighbors), (len(members), 1))
        group_best = np.full((len(members), num_blocks), NEVER, dtype=float)
        chosen = np.empty((len(members), steps), dtype=np.int64)
        for step in range(steps):
            transformed = np.minimum(stacked, group_best[:, None, :])
            low, high = order_statistics(transformed, lower, upper)
            finite = np.isfinite(low) & np.isfinite(high)
            if lower == upper:
                scores = np.where(finite, low, NEVER)
            else:
                scores = np.where(
                    finite, low * (1.0 - weight) + high * weight, NEVER
                )
            local = np.argmin(scores, axis=1)
            for row in np.flatnonzero(~finite.any(axis=1)).tolist():
                means = [_finite_mean(candidate) for candidate in stacked[row]]
                local[row] = int(np.argmin(means))
            chosen[:, step] = positions[rows, local]
            group_best = np.minimum(stacked[rows, local], group_best)
            if step + 1 < steps:
                left = positions.shape[1] - 1
                kept = np.arange(left + 1) != local[:, None]
                stacked = stacked[kept].reshape(len(members), left, num_blocks)
                positions = positions[kept].reshape(len(members), left)
        selected = np.take_along_axis(ids, chosen, axis=1)
        for index, row in zip(members, selected.tolist()):
            picks[index] = row
    return picks


def _finite_mean(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return math.inf
    return float(finite.mean())
