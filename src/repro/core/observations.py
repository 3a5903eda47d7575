"""Observation sets: what a node learns about its neighbors during a round.

During a round, each node ``v`` records, for every block ``b`` and every
communication neighbor ``u``, the local time ``t^b_{u,v}`` at which ``u``
delivered (or would have delivered) block ``b`` to ``v``; the tuple set
``O_v = {(b, u, t^b_{u,v})}`` is the *observation set* of Section 4.1.

Because a node cannot know when a block was actually mined, scores are always
computed on the *time-normalised* observation set (Equation 2 of the paper):
timestamps are re-expressed relative to the first time the node heard of each
block from any neighbor.

:class:`RoundObservations` is the one representation of a round's
observations: columnar, array-native storage for all nodes at once —
directed-edge arrays ``senders``/``receivers`` plus a ``(2E, B)`` timestamp
matrix, receiver-sorted with CSR-style ``indptr`` offsets for per-node
slicing.  The propagation engine builds it already receiver-sorted, so the
timestamp matrix is the round's one large allocation
(:meth:`RoundObservations.from_directed_edges` sorts unsorted edges for
rounds built by hand).  The simulator hands it to
:meth:`~repro.protocols.base.NeighborSelectionProtocol.update`, and the
Perigee hot path reads Equation-2-normalised array views of it, so the
per-round cost is a handful of NumPy passes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Sentinel used when a neighbor never delivered a block.
NEVER = math.inf

#: Nodes whose rows :meth:`RoundObservations.first_arrivals` folds together.
FOLD_CHUNK_NODES = 1024


def percentile_score(values: list[float] | np.ndarray, percentile: float = 90.0) -> float:
    """The ``percentile``-th percentile of a timestamp multiset.

    Infinite entries (blocks a neighbor never delivered) are kept: if the
    requested percentile lands on them the score is infinite, which correctly
    penalises neighbors that fail to deliver a sizeable fraction of blocks.
    An empty multiset scores infinity (an unobserved neighbor carries no
    evidence of good connectivity).
    """
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return NEVER
    if not np.any(np.isfinite(array)):
        return NEVER
    # The percentile is taken over the full multiset: with enough infinite
    # entries (blocks the neighbor never delivered) the requested percentile
    # lands in the infinite mass and the score is infinite.
    return _percentile_of_sorted(array, percentile)


def _percentile_of_sorted(array: np.ndarray, percentile: float) -> float:
    """Linear-interpolation percentile treating ``inf`` as the largest values."""
    ordered = np.sort(array)
    rank = percentile / 100.0 * (ordered.size - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    if not math.isfinite(ordered[lower]):
        return NEVER
    if not math.isfinite(ordered[upper]):
        return NEVER
    if lower == upper:
        return float(ordered[lower])
    weight = rank - lower
    return float(ordered[lower] * (1.0 - weight) + ordered[upper] * weight)


def order_statistics(
    values: np.ndarray, lower: int, upper: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``lower``-th and ``upper``-th smallest entries along the last axis.

    Equal to ``np.sort(values, axis=-1)[..., lower]`` and ``[..., upper]``
    (NaN sorting last), for ``lower <= upper <= lower + 1`` — the two
    interpolation anchors of a linear percentile.  ``values`` is partitioned
    in place at ``upper`` alone: a single-kth partition is several times
    faster than one given both anchors.  Every entry left of ``upper`` is
    then no larger than the ``upper``-th order statistic, so their ``max``
    is exactly the ``(upper - 1)``-th, and it propagates NaN where a sort
    would put NaN.  When ``lower == upper`` both results are the same array.
    """
    if not lower <= upper <= lower + 1:
        raise ValueError("order_statistics needs lower <= upper <= lower + 1")
    values.partition(upper, axis=-1)
    high = values[..., upper]
    if lower == upper:
        return high, high
    return values[..., :upper].max(axis=-1), high


def percentile_scores(times: np.ndarray, percentile: float = 90.0) -> np.ndarray:
    """Row-wise :func:`percentile_score` over a ``(k, B)`` timestamp block.

    Bit-identical to calling :func:`percentile_score` on each row: the same
    linear-interpolation formula runs on every row at once, and rows whose
    interpolation anchors are infinite (not enough delivered blocks) score
    :data:`NEVER`, as does every row of a zero-block matrix.  ``times`` is
    left unchanged: the anchors are found in a copy, because callers such as
    the flight recorder read the same block afterwards.
    """
    times = np.array(times, dtype=float)
    if times.ndim != 2:
        raise ValueError("times must be a 2-D (neighbors, blocks) block")
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
    rows, num_blocks = times.shape
    if num_blocks == 0:
        return np.full(rows, NEVER, dtype=float)
    rank = percentile / 100.0 * (num_blocks - 1)
    lower = int(math.floor(rank))
    upper = int(math.ceil(rank))
    low, high = order_statistics(times, lower, upper)
    finite = np.isfinite(low) & np.isfinite(high)
    if lower == upper:
        return np.where(finite, low, NEVER)
    weight = rank - lower
    return np.where(finite, low * (1.0 - weight) + high * weight, NEVER)


def batched_percentile_scores(
    blocks: Sequence[np.ndarray], percentile: float = 90.0
) -> np.ndarray:
    """Concatenated :func:`percentile_scores` over many timestamp blocks.

    The score of a neighbor depends only on its own row, so blocks sharing a
    column count can be scored in one vertically-stacked pass instead of one
    NumPy call per block — the difference between microseconds and
    milliseconds when a flight-recorded round captures a block per node.
    Returns ``concatenate([percentile_scores(b, percentile) for b in blocks])``
    bit-for-bit, in block order.
    """
    if not blocks:
        return np.zeros(0, dtype=float)
    by_width: dict[int, list[int]] = {}
    arrays = []
    for index, block in enumerate(blocks):
        block = np.asarray(block, dtype=float)
        if block.ndim != 2:
            raise ValueError("times must be a 2-D (neighbors, blocks) block")
        arrays.append(block)
        by_width.setdefault(block.shape[1], []).append(index)
    parts: list[np.ndarray] = [np.zeros(0, dtype=float)] * len(arrays)
    for indices in by_width.values():
        scores = percentile_scores(
            np.vstack([arrays[i] for i in indices]), percentile
        )
        offset = 0
        for i in indices:
            rows = arrays[i].shape[0]
            parts[i] = scores[offset : offset + rows]
            offset += rows
    return np.concatenate(parts)


class RoundObservations:
    """Columnar observation storage for one round, for all nodes at once.

    The directed edge ``senders[i] -> receivers[i]`` carries the timestamps
    ``times[i, :]`` — one per block of the round — at which ``senders[i]``
    delivered (or would have delivered) each block to ``receivers[i]``.  Rows
    are sorted by ``(receiver, sender)`` and ``indptr`` holds CSR-style
    offsets, so the observation set of node ``v`` is the contiguous row range
    ``indptr[v]:indptr[v + 1]``.

    Attributes
    ----------
    num_nodes:
        Number of nodes in the overlay (defines the ``indptr`` length).
    block_ids:
        Global block ids of the round's blocks, ascending, shape ``(B,)``.
    senders / receivers:
        Directed-edge endpoints, shape ``(2E,)`` each.
    times:
        Delivery timestamp matrix, shape ``(2E, B)``.
    indptr:
        Receiver offsets, shape ``(num_nodes + 1,)``.
    """

    __slots__ = (
        "num_nodes",
        "block_ids",
        "senders",
        "receivers",
        "times",
        "indptr",
        "_first_arrivals",
        "_edge_keys",
    )

    def __init__(
        self,
        num_nodes: int,
        block_ids: np.ndarray,
        senders: np.ndarray,
        receivers: np.ndarray,
        times: np.ndarray,
        indptr: np.ndarray,
    ) -> None:
        self.num_nodes = int(num_nodes)
        self.block_ids = block_ids
        self.senders = senders
        self.receivers = receivers
        self.times = times
        self.indptr = indptr
        self._first_arrivals: np.ndarray | None = None
        self._edge_keys: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_directed_edges(
        cls,
        num_nodes: int,
        block_ids: np.ndarray | Sequence[int],
        senders: np.ndarray,
        receivers: np.ndarray,
        times: np.ndarray,
    ) -> "RoundObservations":
        """Build from unsorted directed edges (sorts by receiver, then sender)."""
        block_ids = np.asarray(block_ids, dtype=np.int64)
        senders = np.asarray(senders, dtype=np.int64)
        receivers = np.asarray(receivers, dtype=np.int64)
        times = np.asarray(times, dtype=float)
        if times.shape != (senders.size, block_ids.size):
            raise ValueError("times must have shape (num_directed_edges, num_blocks)")
        if senders.size:
            order = np.lexsort((senders, receivers))
            senders = senders[order]
            receivers = receivers[order]
            times = np.ascontiguousarray(times[order])
        indptr = np.searchsorted(receivers, np.arange(num_nodes + 1))
        return cls(num_nodes, block_ids, senders, receivers, times, indptr)

    @classmethod
    def empty(
        cls, num_nodes: int, block_ids: np.ndarray | Sequence[int] = ()
    ) -> "RoundObservations":
        """An observation structure with no edges (isolated overlay)."""
        block_ids = np.asarray(block_ids, dtype=np.int64)
        return cls(
            num_nodes=num_nodes,
            block_ids=block_ids,
            senders=np.zeros(0, dtype=np.int64),
            receivers=np.zeros(0, dtype=np.int64),
            times=np.zeros((0, block_ids.size), dtype=float),
            indptr=np.zeros(num_nodes + 1, dtype=np.int64),
        )

    # ------------------------------------------------------------------ #
    # Shape
    # ------------------------------------------------------------------ #
    @property
    def num_blocks(self) -> int:
        return int(self.block_ids.size)

    @property
    def num_directed_edges(self) -> int:
        return int(self.senders.size)

    def neighbors_of(self, node_id: int) -> np.ndarray:
        """Ascending sender ids delivering to ``node_id`` (its ``Γ_v``)."""
        self._check_node(node_id)
        return self.senders[self.indptr[node_id] : self.indptr[node_id + 1]]

    def raw_times(self, node_id: int) -> np.ndarray:
        """The raw ``(k, B)`` timestamp block of one node, rows per neighbor."""
        self._check_node(node_id)
        return self.times[self.indptr[node_id] : self.indptr[node_id + 1]]

    # ------------------------------------------------------------------ #
    # Equation 2, vectorised
    # ------------------------------------------------------------------ #
    def first_arrivals(self) -> np.ndarray:
        """``(num_nodes, B)`` matrix of each node's first hearing of each block.

        Computed once per round as a segment minimum over the receiver-sorted
        timestamp matrix; :data:`NEVER` where a block never reached a node.
        The minimum is folded rank by rank: step ``k`` takes ``np.minimum``
        of the running row and row ``indptr[v] + k`` of every node ``v``
        with more than ``k`` neighbors, in whole contiguous rows.  That is
        the same left fold, in the same order, as a per-segment
        ``np.minimum.reduceat``, so the result is bit-identical (NaN
        included).  Nodes are folded :data:`FOLD_CHUNK_NODES` at a time in
        two reused scratch blocks, so the temporaries stay small however
        large the overlay is.
        """
        if self._first_arrivals is None:
            out = np.full((self.num_nodes, self.num_blocks), NEVER, dtype=float)
            starts = self.indptr[:-1]
            degrees = np.diff(self.indptr)
            # Two scratch blocks serve every chunk and rank, so a round
            # allocates no timestamp-sized temporaries.
            size = min(FOLD_CHUNK_NODES, self.num_nodes)
            running = np.empty((size, self.num_blocks), dtype=float)
            gathered = np.empty_like(running)
            for start in range(0, self.num_nodes, FOLD_CHUNK_NODES):
                # Most neighbors first: the nodes with more than k
                # neighbors are then a prefix of the chunk.
                nodes = start + np.argsort(
                    -degrees[start : start + FOLD_CHUNK_NODES], kind="stable"
                )
                degree = degrees[nodes]
                rows = starts[nodes]
                block = running[: nodes.size]
                block.fill(NEVER)
                for rank in range(int(degree[0])):
                    count = int(np.count_nonzero(degree > rank))
                    np.take(self.times, rows[:count] + rank, axis=0, out=gathered[:count])
                    np.minimum(block[:count], gathered[:count], out=block[:count])
                out[nodes] = block
            self._first_arrivals = out
        return self._first_arrivals

    def normalized_rows(
        self, node_id: int, wanted: np.ndarray
    ) -> np.ndarray:
        """Equation-2-normalised timestamp block for one node.

        Parameters
        ----------
        node_id:
            The observing node.
        wanted:
            Ascending array of neighbor ids to extract rows for; ids without
            observations yield all-:data:`NEVER` rows (an unobserved
            neighbor delivered nothing).

        Returns
        -------
        A ``(len(wanted), B_v)`` matrix where ``B_v`` counts the blocks the
        node actually heard of; every entry is the delivery offset from the
        node's first hearing of that block (``inf`` when never delivered).
        """
        self._check_node(node_id)
        first = self.first_arrivals()[node_id]
        observed = np.isfinite(first)
        base = first[observed]
        out = np.full((wanted.size, base.size), NEVER, dtype=float)
        lo, hi = int(self.indptr[node_id]), int(self.indptr[node_id + 1])
        if hi > lo and base.size:
            neighbors = self.senders[lo:hi]
            pos = np.searchsorted(neighbors, wanted)
            pos = np.minimum(pos, neighbors.size - 1)
            present = neighbors[pos] == wanted
            if present.any():
                out[present] = self.times[lo:hi][pos[present]][:, observed] - base
        return out

    def normalized_blocks(
        self, node_ids: Sequence[int], wanted: Sequence[np.ndarray]
    ) -> list[np.ndarray]:
        """:meth:`normalized_rows` for many nodes in one gather.

        Returns ``[normalized_rows(v, w) for v, w in zip(node_ids, wanted)]``
        bit for bit.  Every (node, neighbor) row is located with one
        ``searchsorted`` over the sorted ``receiver * N + sender`` edge key
        and normalised with one subtraction of :meth:`first_arrivals`;
        nodes that missed a block of the round (``B_v < B``) drop columns,
        so they take the per-node path instead.
        """
        counts = [ids.size for ids in wanted]
        if not counts:
            return []
        owners = np.repeat(np.asarray(node_ids, dtype=np.int64), counts)
        peers = np.concatenate(wanted).astype(np.int64, copy=False)
        first = self.first_arrivals()
        complete = np.isfinite(first).all(axis=1)
        rows = np.full((peers.size, self.num_blocks), NEVER, dtype=float)
        if self.senders.size:
            if self._edge_keys is None:
                self._edge_keys = self.receivers * self.num_nodes + self.senders
            keys = self._edge_keys
            query = owners * self.num_nodes + peers
            pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
            present = (keys[pos] == query) & complete[owners]
            rows[present] = self.times[pos[present]] - first[owners[present]]
        blocks = []
        start = 0
        for node_id, ids, count in zip(node_ids, wanted, counts):
            if complete[node_id]:
                blocks.append(rows[start : start + count])
            else:
                blocks.append(self.normalized_rows(int(node_id), ids))
            start += count
        return blocks

    # ------------------------------------------------------------------ #
    # Derived rounds (security wrappers)
    # ------------------------------------------------------------------ #
    def with_times(self, times: np.ndarray) -> "RoundObservations":
        """A new round sharing this structure but with a replaced time matrix.

        Used by adversarial wrappers (free-riding censorship, eclipse head
        starts) that transform what honest nodes observe without touching
        the overlay structure.
        """
        times = np.asarray(times, dtype=float)
        if times.shape != self.times.shape:
            raise ValueError("replacement times must match the existing shape")
        return RoundObservations(
            num_nodes=self.num_nodes,
            block_ids=self.block_ids,
            senders=self.senders,
            receivers=self.receivers,
            times=times,
            indptr=self.indptr,
        )

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.num_nodes:
            raise IndexError(f"node id {node_id} out of range")
