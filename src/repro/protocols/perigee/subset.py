"""Perigee-Subset (Section 4.3), the paper's preferred variant.

Rather than scoring neighbors in isolation, the node greedily assembles a
group of neighbors whose *joint* coverage of the round's blocks is best: each
pick minimises the 90th percentile of the per-block minimum delivery time over
the group selected so far.  Neighbors that merely duplicate the coverage of
already-selected peers gain nothing, so the retained group complements itself
— the property that lets Perigee-Subset outperform the per-neighbor scores.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.protocols.perigee.base import PerigeeBase
from repro.protocols.scoring import greedy_subset_selection_batch


class PerigeeSubsetProtocol(PerigeeBase):
    """Greedy complement-aware group selection."""

    name = "perigee-subset"

    def select_retained_batch(
        self,
        node_ids: Sequence[int],
        neighbors: Sequence[np.ndarray],
        times: Sequence[np.ndarray],
        retain_budget: int,
    ) -> list[set[int]]:
        if retain_budget <= 0:
            return [set() for _ in node_ids]
        picks = greedy_subset_selection_batch(
            neighbors, times, retain_budget, self.percentile
        )
        return [set(selected) for selected in picks]
