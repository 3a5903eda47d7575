"""Perigee-UCB (Section 4.2.2).

VanillaScoring's per-round percentile estimates are noisy when few blocks are
mined per round.  Perigee-UCB instead accumulates each neighbor's relative
timestamps over its entire connection history and maintains upper and lower
confidence bounds around the percentile estimate (Equations 3 and 4).  At the
end of a round the node evicts the neighbor with the largest lower bound —
but only when that lower bound exceeds the smallest upper bound among the
other neighbors, i.e. only when the node is confident the neighbor really is
the worst.  The evicted slot is refilled with a random peer.  Rounds are
short (a single block per round in the paper's experiments), so decisions are
frequent but conservative.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Sequence

import numpy as np

from repro.core.observations import NEVER
from repro.protocols.perigee.base import PerigeeBase
from repro.protocols.scoring import (
    DEFAULT_UCB_CONSTANT,
    _half_width,
    _linear_percentile_rows,
)

#: Most samples stacked into one percentile pass by the batch scorer
#: (8 MB of float64), so long histories never stack a whole chunk at once.
STACK_SAMPLES = 1 << 20


class PerigeeUCBProtocol(PerigeeBase):
    """Confidence-bound based eviction with per-neighbor history.

    Parameters
    ----------
    exploration_constant:
        The constant ``c`` of the confidence bounds; larger values make
        evictions more conservative.
    history_limit:
        Maximum number of samples retained per neighbor (oldest samples are
        discarded first).  Bounds memory for very long runs.
    """

    name = "perigee-ucb"

    def __init__(
        self,
        exploration_peers: int | None = None,
        percentile: float = 90.0,
        exploration_constant: float = DEFAULT_UCB_CONSTANT,
        history_limit: int = 2000,
    ) -> None:
        super().__init__(exploration_peers=exploration_peers, percentile=percentile)
        if exploration_constant < 0:
            raise ValueError("exploration_constant must be non-negative")
        if history_limit < 1:
            raise ValueError("history_limit must be positive")
        self._exploration_constant = exploration_constant
        self._history_limit = history_limit
        # history[node][neighbor] -> accumulated finite relative timestamps,
        # oldest first, as one float64 array.
        self._history: dict[int, dict[int, np.ndarray]] = defaultdict(dict)

    @property
    def exploration_constant(self) -> float:
        return self._exploration_constant

    def exploration_budget(self, context) -> int:  # noqa: ANN001 - see base class
        """UCB explores only by replacing the neighbor it evicts.

        Unlike Vanilla and Subset scoring, which drop to ``d_v - e_v``
        retained neighbors every round, the UCB rule of Section 4.2.2 keeps
        the whole neighbor set unless it is confident one neighbor is the
        worst, and replaces only that neighbor with a random peer.  The
        exploration budget of Algorithm 1 is therefore not reserved up front.
        """
        if self._exploration_peers is not None:
            return self._exploration_peers
        return 0

    def reset(self) -> None:
        self._history = defaultdict(dict)

    def state_dict(self) -> dict[str, object]:
        """Serialise the stacked per-neighbor history.

        JSON object keys must be strings, so node/neighbor ids are stringified
        here and parsed back in :meth:`load_state_dict`.  Samples are plain
        Python floats (``tolist`` output), which round-trip exactly through
        JSON's repr-based encoding — the same lists of floats the history
        held before it was stored as arrays, so old checkpoints still load.
        """
        history = {
            str(node_id): {
                str(neighbor): np.asarray(samples, dtype=float).tolist()
                for neighbor, samples in buckets.items()
            }
            for node_id, buckets in self._history.items()
            if buckets
        }
        return {"history": history} if history else {}

    def load_state_dict(self, state: dict[str, object]) -> None:
        restored: dict[int, dict[int, np.ndarray]] = defaultdict(dict)
        for node_id, buckets in state.get("history", {}).items():
            node_history = restored[int(node_id)]
            for neighbor, samples in buckets.items():
                node_history[int(neighbor)] = np.array(samples, dtype=float)
        self._history = restored

    def history_for(self, node_id: int) -> dict[int, list[float]]:
        """Accumulated samples per neighbor for one node (copy, for tests)."""
        return {
            neighbor: np.asarray(samples, dtype=float).tolist()
            for neighbor, samples in self._history[node_id].items()
        }

    def on_neighbors_dropped(self, node_id: int, dropped: set[int]) -> None:
        """Forget the history of neighbors the node disconnected from.

        The paper indexes history by "the past ``r_{u,v}`` rounds" a neighbor
        has been connected, so a re-connected neighbor starts fresh.
        """
        for neighbor in dropped:
            self._history[node_id].pop(neighbor, None)

    def select_retained_batch(
        self,
        node_ids: Sequence[int],
        neighbors: Sequence[np.ndarray],
        times: Sequence[np.ndarray],
        retain_budget: int,
    ) -> list[set[int]]:
        if retain_budget <= 0:
            return [set() for _ in node_ids]
        # Fold the new round's finite observations into each (node,
        # neighbor) history, keeping the newest ``history_limit`` samples.
        peer_lists = [np.asarray(ids).tolist() for ids in neighbors]
        histories: list[np.ndarray] = []
        for node_id, peers, block in zip(node_ids, peer_lists, times):
            history = self._history[node_id]
            block = np.asarray(block, dtype=float)
            finite = np.isfinite(block)
            for row, neighbor in enumerate(peers):
                samples = block[row, finite[row]]
                bucket = history.get(neighbor)
                if samples.size and bucket is not None and len(bucket):
                    samples = np.concatenate((bucket, samples))
                if samples.size > self._history_limit:
                    samples = samples[samples.size - self._history_limit :]
                if samples.size or bucket is None:
                    history[neighbor] = bucket = samples
                histories.append(bucket)
        estimate, lower, upper = self._intervals(histories)
        # ucb_eviction_candidate for every node at once, over its contiguous
        # rows: evict the first neighbor with the largest lower bound when
        # that bound exceeds the node's smallest upper bound.
        counts = np.array([len(peers) for peers in peer_lists], dtype=np.int64)
        starts = np.cumsum(counts) - counts
        nonempty = counts > 0
        evict = np.zeros(counts.size, dtype=bool)
        worst = np.zeros(counts.size, dtype=np.int64)
        if nonempty.any():
            segments = starts[nonempty]
            worst_lower = np.maximum.reduceat(lower, segments)
            is_worst = lower == np.repeat(worst_lower, counts[nonempty])
            worst[nonempty] = np.minimum.reduceat(
                np.where(is_worst, np.arange(lower.size), lower.size), segments
            )
            evict[nonempty] = (counts[nonempty] >= 2) & (
                worst_lower > np.minimum.reduceat(upper, segments)
            )
        retained: list[set[int]] = []
        for peers, start, evicts, worst_row in zip(
            peer_lists, starts.tolist(), evict.tolist(), worst.tolist()
        ):
            keep = list(range(len(peers)))
            if evicts:
                keep.remove(worst_row - start)
            if len(keep) > retain_budget:
                # Respect the retain budget by dropping the worst estimates.
                keep = sorted(
                    keep, key=lambda index: (estimate[start + index], peers[index])
                )[:retain_budget]
            retained.append({peers[index] for index in keep})
        return retained

    def _intervals(
        self, histories: Sequence[np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Equation-3/4 ``(estimate, lower, upper)`` arrays, one per history.

        Bit-identical to :func:`confidence_intervals_stacked` on the same
        (all-finite) histories: equally long histories share one stacked
        percentile pass, in slabs of at most :data:`STACK_SAMPLES` samples.
        """
        lengths = np.array([len(samples) for samples in histories], dtype=np.int64)
        estimate = np.full(lengths.size, NEVER, dtype=float)
        lower = estimate.copy()
        upper = estimate.copy()
        for length in np.unique(lengths[lengths > 0]).tolist():
            indices = np.flatnonzero(lengths == length)
            half_width = _half_width(length, self._exploration_constant)
            slab = max(1, STACK_SAMPLES // length)
            for offset in range(0, indices.size, slab):
                part = indices[offset : offset + slab]
                values = _linear_percentile_rows(
                    np.stack([histories[index] for index in part]),
                    self.percentile,
                )
                estimate[part] = values
                lower[part] = values - half_width
                upper[part] = values + half_width
        return estimate, lower, upper

    def select_retained_block(
        self,
        node_id: int,
        neighbors: np.ndarray,
        times: np.ndarray,
        retain_budget: int,
        rng: np.random.Generator,
    ) -> set[int]:
        del rng
        return self.select_retained_batch(
            [node_id], [neighbors], [times], retain_budget
        )[0]

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["exploration_constant"] = self._exploration_constant
        info["history_limit"] = self._history_limit
        return info
