"""Perigee-Vanilla (Section 4.2.1).

Each outgoing neighbor is scored independently by the 90th percentile of the
relative timestamps at which it delivered the round's blocks; the neighbors
with the lowest scores are retained.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.observations import batched_percentile_scores
from repro.protocols.perigee.base import PerigeeBase


class PerigeeVanillaProtocol(PerigeeBase):
    """Independent per-neighbor percentile scoring."""

    name = "perigee-vanilla"

    def select_retained_batch(
        self,
        node_ids: Sequence[int],
        neighbors: Sequence[np.ndarray],
        times: Sequence[np.ndarray],
        retain_budget: int,
    ) -> list[set[int]]:
        if retain_budget <= 0 or not len(node_ids):
            return [set() for _ in node_ids]
        # Every row is scored in one pass per block width; one lexsort then
        # ranks all nodes at once.  Its primary key (the node's position)
        # keeps each node's rows contiguous; within a node, lower score is
        # better and ties are broken by node id for determinism.
        scores = batched_percentile_scores(times, self.percentile)
        peers = np.concatenate(
            [np.asarray(ids, dtype=np.int64) for ids in neighbors]
        )
        counts = np.array([len(ids) for ids in neighbors], dtype=np.int64)
        owner = np.repeat(np.arange(counts.size), counts)
        order = np.lexsort((peers, scores, owner))
        rank = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
        kept = peers[order[rank < retain_budget]].tolist()
        retained = []
        start = 0
        for count in np.minimum(counts, retain_budget).tolist():
            retained.append(set(kept[start : start + count]))
            start += count
        return retained

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
