"""Observation sets: what a node learns about its neighbors during a round.

During a round, each node ``v`` records, for every block ``b`` and every
communication neighbor ``u``, the local time ``t^b_{u,v}`` at which ``u``
delivered (or would have delivered) block ``b`` to ``v``; the tuple set
``O_v = {(b, u, t^b_{u,v})}`` is the *observation set* of Section 4.1.

Because a node cannot know when a block was actually mined, scores are always
computed on the *time-normalised* observation set (Equation 2 of the paper):
timestamps are re-expressed relative to the first time the node heard of each
block from any neighbor.

Two representations coexist:

* :class:`RoundObservations` is the columnar, array-native storage for a
  whole round — directed-edge arrays ``senders``/``receivers`` plus a
  ``(2E, B)`` timestamp matrix, receiver-sorted with CSR-style ``indptr``
  offsets for per-node slicing.  The propagation engine emits it directly
  and the Perigee hot path consumes per-node array views of it, so the
  per-round cost is a handful of NumPy passes instead of ``O(E·B)``
  Python-level dictionary operations.
* :class:`ObservationSet` is the original dict-of-dicts view, kept as the
  public per-node API.  :class:`ObservationMap` bridges the two: it is the
  mapping the simulator hands to protocols, lazily materialising an
  :class:`ObservationSet` per node only when legacy callers ask for one.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

#: Sentinel used when a neighbor never delivered a block.
NEVER = math.inf


@dataclass(frozen=True)
class Observation:
    """A single ``(block, neighbor, timestamp)`` tuple recorded by a node."""

    block_id: int
    neighbor: int
    timestamp_ms: float

    def __post_init__(self) -> None:
        if self.block_id < 0:
            raise ValueError("block_id must be non-negative")
        if self.neighbor < 0:
            raise ValueError("neighbor must be a valid node id")


@dataclass
class ObservationSet:
    """All observations a node collected during one round.

    The underlying storage is a mapping ``block_id -> {neighbor: timestamp}``,
    which keeps per-block normalisation (Equation 2) and per-neighbor
    extraction cheap.
    """

    node_id: int
    _by_block: dict[int, dict[int, float]] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record(self, block_id: int, neighbor: int, timestamp_ms: float) -> None:
        """Record that ``neighbor`` delivered ``block_id`` at ``timestamp_ms``."""
        if block_id < 0:
            raise ValueError("block_id must be non-negative")
        if neighbor < 0:
            raise ValueError("neighbor must be a valid node id")
        self._by_block.setdefault(block_id, {})[neighbor] = float(timestamp_ms)

    def record_many(
        self, block_id: int, deliveries: dict[int, float]
    ) -> None:
        """Record a whole ``{neighbor: timestamp}`` mapping for one block."""
        for neighbor, timestamp in deliveries.items():
            self.record(block_id, neighbor, timestamp)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def block_ids(self) -> list[int]:
        """Blocks for which at least one observation exists, sorted."""
        return sorted(self._by_block)

    @property
    def neighbors_seen(self) -> set[int]:
        """All neighbors appearing in at least one observation."""
        seen: set[int] = set()
        for deliveries in self._by_block.values():
            seen.update(deliveries)
        return seen

    def num_observations(self) -> int:
        """Total number of recorded ``(block, neighbor, timestamp)`` tuples."""
        return sum(len(deliveries) for deliveries in self._by_block.values())

    def __len__(self) -> int:
        return self.num_observations()

    def timestamps_for_block(self, block_id: int) -> dict[int, float]:
        """The raw ``{neighbor: timestamp}`` map for one block (copy)."""
        return dict(self._by_block.get(block_id, {}))

    def iter_observations(self):
        """Yield :class:`Observation` tuples in (block, neighbor) order."""
        for block_id in sorted(self._by_block):
            deliveries = self._by_block[block_id]
            for neighbor in sorted(deliveries):
                yield Observation(block_id, neighbor, deliveries[neighbor])

    # ------------------------------------------------------------------ #
    # Normalisation and per-neighbor views (Equation 2)
    # ------------------------------------------------------------------ #
    def first_arrival(self, block_id: int) -> float:
        """Earliest time the node heard of ``block_id`` from any neighbor.

        Returns :data:`NEVER` when the block was never observed.
        """
        deliveries = self._by_block.get(block_id)
        if not deliveries:
            return NEVER
        return min(deliveries.values())

    def normalized(self) -> "ObservationSet":
        """Return the time-normalised observation set ``Õ_v``.

        Every timestamp is replaced by its offset from the first time the
        block reached the node.  Blocks that were never observed are dropped.
        """
        normalized = ObservationSet(node_id=self.node_id)
        for block_id, deliveries in self._by_block.items():
            finite = [t for t in deliveries.values() if math.isfinite(t)]
            if not finite:
                continue
            first = min(finite)
            for neighbor, timestamp in deliveries.items():
                if math.isfinite(timestamp):
                    normalized.record(block_id, neighbor, timestamp - first)
                else:
                    normalized.record(block_id, neighbor, NEVER)
        return normalized

    def relative_timestamps(self, neighbor: int) -> list[float]:
        """The multiset ``T̃_{u,v}`` of relative timestamps for one neighbor.

        The observation set must already be normalised (this method does not
        normalise implicitly so callers control when normalisation happens).
        Blocks the neighbor never delivered contribute :data:`NEVER`.
        """
        values: list[float] = []
        for deliveries in self._by_block.values():
            values.append(deliveries.get(neighbor, NEVER))
        return values

    def finite_relative_timestamps(self, neighbor: int) -> list[float]:
        """Like :meth:`relative_timestamps` but dropping never-delivered blocks."""
        return [t for t in self.relative_timestamps(neighbor) if math.isfinite(t)]

    def times_block(self, neighbors: Sequence[int] | np.ndarray) -> np.ndarray:
        """The ``(len(neighbors), num_blocks)`` timestamp block of this set.

        Row ``i`` holds neighbor ``neighbors[i]``'s timestamp for every block
        (:data:`NEVER` where the neighbor has no entry), with columns in the
        set's block insertion order.  This is the bridge from the dict
        representation to the array-native scoring functions: on observation
        sets produced by the simulator the columns are ascending block ids,
        matching the columnar :class:`RoundObservations` layout exactly.
        """
        ids = [int(neighbor) for neighbor in neighbors]
        blocks = list(self._by_block.values())
        if not blocks or not ids:
            return np.zeros((len(ids), len(blocks)), dtype=float)
        return np.array(
            [[deliveries.get(n, NEVER) for deliveries in blocks] for n in ids],
            dtype=float,
        )

    def merge(self, other: "ObservationSet") -> "ObservationSet":
        """Union of two observation sets for the same node.

        Used by scoring methods that accumulate observations over multiple
        rounds (Perigee-UCB).  Block ids must not collide across rounds; the
        simulator guarantees this by numbering blocks globally.
        """
        if other.node_id != self.node_id:
            raise ValueError("cannot merge observation sets from different nodes")
        merged = ObservationSet(node_id=self.node_id)
        for source in (self, other):
            for block_id, deliveries in source._by_block.items():
                for neighbor, timestamp in deliveries.items():
                    merged.record(block_id, neighbor, timestamp)
        return merged


def percentile_score(values: list[float] | np.ndarray, percentile: float = 90.0) -> float:
    """The ``percentile``-th percentile of a timestamp multiset.

    Infinite entries (blocks a neighbor never delivered) are kept: if the
    requested percentile lands on them the score is infinite, which correctly
    penalises neighbors that fail to deliver a sizeable fraction of blocks.
    An empty multiset scores infinity (an unobserved neighbor carries no
    evidence of good connectivity).
    """
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        return NEVER
    if not 0.0 <= percentile <= 100.0:
        raise ValueError("percentile must be within [0, 100]")
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


def percentile_scores(times: np.ndarray, percentile: float = 90.0) -> np.ndarray:
    """Row-wise :func:`percentile_score` over a ``(k, B)`` timestamp block.

    Bit-identical to calling :func:`percentile_score` on each row: the same
    linear-interpolation formula runs on every row at once, and rows whose
    interpolation anchors are infinite (not enough delivered blocks) score
    :data:`NEVER`, as does every row of a zero-block matrix.
    """
    times = np.asarray(times, dtype=float)
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
    # Only the two interpolation anchors are needed, so a partial sort
    # suffices — it places the exact order statistics at both positions.
    ordered = np.partition(times, (lower, upper), axis=1)
    low = ordered[:, lower]
    high = ordered[:, upper]
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

        Computed once per round as a segment-minimum over the receiver-sorted
        timestamp matrix; :data:`NEVER` where a block never reached a node.
        """
        if self._first_arrivals is None:
            out = np.full((self.num_nodes, self.num_blocks), NEVER, dtype=float)
            starts = self.indptr[:-1]
            nonempty = self.indptr[1:] > starts
            if self.times.shape[0] and nonempty.any():
                # Empty segments occupy no rows, so consecutive non-empty
                # segment starts are exactly each other's ends and one
                # reduceat covers every node that has neighbors.
                out[nonempty] = np.minimum.reduceat(
                    self.times, starts[nonempty], axis=0
                )
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
            observations yield all-:data:`NEVER` rows (exactly what the dict
            path reports for an unobserved neighbor).

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
    # Derived rounds (security wrappers) and compatibility views
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

    def node_observation_set(self, node_id: int) -> ObservationSet:
        """Materialise the legacy dict-of-dicts view of one node."""
        self._check_node(node_id)
        observations = ObservationSet(node_id=node_id)
        lo, hi = int(self.indptr[node_id]), int(self.indptr[node_id + 1])
        if hi > lo and self.num_blocks:
            neighbors = self.senders[lo:hi].tolist()
            columns = self.times[lo:hi].T.tolist()
            for block_id, column in zip(self.block_ids.tolist(), columns):
                observations._by_block[int(block_id)] = dict(
                    zip(neighbors, column)
                )
        return observations

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self.num_nodes:
            raise IndexError(f"node id {node_id} out of range")


class ObservationMap(Mapping):
    """Mapping view ``node_id -> ObservationSet`` over a :class:`RoundObservations`.

    This is what :meth:`repro.core.simulator.Simulator.collect_observations`
    returns: array-native consumers grab :attr:`round_observations` and never
    touch a dict, while legacy callers index it like the plain dictionary the
    simulator used to build — each per-node :class:`ObservationSet` is
    materialised lazily on first access and cached.
    """

    def __init__(self, round_observations: RoundObservations) -> None:
        self._round = round_observations
        self._cache: dict[int, ObservationSet] = {}

    @property
    def round_observations(self) -> RoundObservations:
        return self._round

    def __getitem__(self, node_id: int) -> ObservationSet:
        if not 0 <= node_id < self._round.num_nodes:
            raise KeyError(node_id)
        cached = self._cache.get(node_id)
        if cached is None:
            cached = self._round.node_observation_set(node_id)
            self._cache[node_id] = cached
        return cached

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._round.num_nodes))

    def __len__(self) -> int:
        return self._round.num_nodes


#: Signature of the per-node normalised-view providers below.
NormalizedRowsProvider = Callable[[int, np.ndarray], np.ndarray]


def normalized_observation_provider(observations) -> NormalizedRowsProvider:
    """Resolve any observation mapping into a normalised array-view provider.

    Returns a callable ``provider(node_id, wanted)`` yielding the
    Equation-2-normalised ``(len(wanted), B_v)`` timestamp block for one
    node, where ``wanted`` is an ascending array of neighbor ids.  For an
    :class:`ObservationMap` (the simulator's output) this is a zero-copy-ish
    slice of the columnar round data; for a plain ``{node_id:
    ObservationSet}`` mapping (tests, hand-built scenarios) the set is
    normalised and converted per node, preserving the legacy semantics
    exactly.
    """
    round_observations = getattr(observations, "round_observations", None)
    if round_observations is not None:
        return round_observations.normalized_rows

    def provider(node_id: int, wanted: np.ndarray) -> np.ndarray:
        observation_set = observations.get(node_id)
        if observation_set is None:
            return np.zeros((wanted.size, 0), dtype=float)
        return observation_set.normalized().times_block(wanted)

    return provider
