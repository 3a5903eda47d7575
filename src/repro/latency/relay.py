"""Fast block-distribution network overlay (Section 5.4).

The paper simulates bloXroute/Falcon/FIBRE-style relay networks in two ways:

* lowering the link latencies among a set of high-power miners
  (Figure 4(b)), and
* adding a dedicated low-latency relay overlay of 100 nodes organised as a
  tree, whose members also validate blocks 10x faster (Figure 4(c)).

This module implements both transformations as *composition-aware wrappers*
around an existing latency model: the wrapper answers ``pairwise(u, v)`` by
gathering the base model's values and applying the overlay edit to the masked
pairs, so no dense ``N x N`` matrix is ever materialised on the hot path.
The propagation engines and protocols stay oblivious to the overlay's
presence — exactly the property the paper highlights (Perigee adapts to
exploit relay networks without being told about them) — and because the
engine consumes latencies exclusively through ``pairwise``, the scenarios
composed this way run at 20k+ nodes over the O(N)-memory backends.
Analyses that need all pairs gather the composed matrix from ``pairwise``
through the :class:`~repro.latency.base.LatencyModel` accessors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.latency.base import LatencyModel

#: Default number of relay nodes (Section 5.4 uses 100).
DEFAULT_RELAY_SIZE = 100

#: Default latency of links internal to the relay overlay, in milliseconds.
DEFAULT_RELAY_LINK_MS = 5.0

#: Default factor applied to latencies among high-power miners (Figure 4(b)).
DEFAULT_MINER_SPEEDUP = 0.1


@dataclass(frozen=True)
class RelayNetworkOverlay:
    """Description of a relay overlay applied on top of a latency model.

    Attributes
    ----------
    members:
        Node ids participating in the overlay.
    tree_parent:
        ``tree_parent[i]`` is the parent (node id) of ``members[i]`` in the
        relay distribution tree, or ``-1`` for the root.  The tree is only
        used for reporting; latencies are lowered between members that are
        adjacent in the tree and, more mildly, between all member pairs.
    link_latency_ms:
        Latency assigned to tree-adjacent relay links.
    """

    members: tuple[int, ...]
    tree_parent: tuple[int, ...]
    link_latency_ms: float = DEFAULT_RELAY_LINK_MS

    def __post_init__(self) -> None:
        if len(self.members) != len(self.tree_parent):
            raise ValueError("members and tree_parent must have the same length")
        if len(set(self.members)) != len(self.members):
            raise ValueError("relay members must be distinct")
        if self.link_latency_ms <= 0:
            raise ValueError("link_latency_ms must be positive")

    @property
    def size(self) -> int:
        return len(self.members)

    def edges(self) -> list[tuple[int, int]]:
        """Tree edges as (child, parent) node-id pairs."""
        pairs = []
        for member, parent in zip(self.members, self.tree_parent):
            if parent >= 0:
                pairs.append((member, parent))
        return pairs


def tree_overlay(
    members: tuple[int, ...],
    branching: int = 3,
    link_latency_ms: float = DEFAULT_RELAY_LINK_MS,
) -> RelayNetworkOverlay:
    """Organise ``members``, in order, as a ``branching``-ary tree.

    ``members[0]`` is the root and ``members[i]`` hangs off
    ``members[(i - 1) // branching]``.
    """
    if branching < 1:
        raise ValueError("branching must be positive")
    return RelayNetworkOverlay(
        members=members,
        tree_parent=tuple(
            -1 if index == 0 else members[(index - 1) // branching]
            for index in range(len(members))
        ),
        link_latency_ms=link_latency_ms,
    )


def build_relay_tree(
    candidate_nodes: int,
    rng: np.random.Generator,
    size: int = DEFAULT_RELAY_SIZE,
    branching: int = 3,
    link_latency_ms: float = DEFAULT_RELAY_LINK_MS,
) -> RelayNetworkOverlay:
    """Pick ``size`` random nodes and organise them as a ``branching``-ary tree."""
    if size < 1:
        raise ValueError("size must be positive")
    if size > candidate_nodes:
        raise ValueError("size cannot exceed the number of candidate nodes")
    members = tuple(
        int(x) for x in rng.choice(candidate_nodes, size=size, replace=False)
    )
    return tree_overlay(members, branching, link_latency_ms)


class RelayOverlayLatencyModel(LatencyModel):
    """Relay-overlay edits composed over a base model, pair by pair.

    The composed latency is ``min(base, link_latency_ms [tree-adjacent],
    member_pair_latency_ms [both members])``, the diagonal excluded.
    Tree-edge membership is resolved with a sorted-key ``searchsorted``
    lookup, keeping ``pairwise`` a handful of vectorised passes over the
    queried pairs only.
    """

    def __init__(
        self,
        base: LatencyModel,
        overlay: RelayNetworkOverlay,
        member_pair_latency_ms: float | None = None,
    ) -> None:
        if member_pair_latency_ms is not None and member_pair_latency_ms <= 0:
            raise ValueError("member_pair_latency_ms must be positive")
        n = base.num_nodes
        members = np.asarray(overlay.members, dtype=np.int64)
        if members.size and (members.min() < 0 or members.max() >= n):
            raise ValueError("overlay members out of range for the base model")
        self._base = base
        self._overlay = overlay
        self._member_pair_ms = member_pair_latency_ms
        self._is_member = np.zeros(n, dtype=bool)
        self._is_member[members] = True
        edges = overlay.edges()
        if edges:
            pairs = np.asarray(edges, dtype=np.int64)
            if pairs.min() < 0 or pairs.max() >= n:
                raise ValueError("overlay tree edges out of range")
            lo = np.minimum(pairs[:, 0], pairs[:, 1])
            hi = np.maximum(pairs[:, 0], pairs[:, 1])
            self._tree_keys = np.unique(lo * n + hi)
        else:
            self._tree_keys = np.zeros(0, dtype=np.int64)

    @property
    def num_nodes(self) -> int:
        return self._base.num_nodes

    @property
    def base(self) -> LatencyModel:
        return self._base

    @property
    def overlay(self) -> RelayNetworkOverlay:
        return self._overlay

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        delta = np.array(self._base.pairwise(u, v), dtype=float)
        if self._member_pair_ms is not None:
            both = self._is_member[u] & self._is_member[v] & (u != v)
            delta[both] = np.minimum(delta[both], self._member_pair_ms)
        if self._tree_keys.size:
            n = self.num_nodes
            keys = np.minimum(u, v) * n + np.maximum(u, v)
            pos = np.searchsorted(self._tree_keys, keys)
            clipped = np.minimum(pos, self._tree_keys.size - 1)
            on_tree = (pos < self._tree_keys.size) & (
                self._tree_keys[clipped] == keys
            )
            delta[on_tree] = np.minimum(
                delta[on_tree], self._overlay.link_latency_ms
            )
        return delta


class MinerSpeedupLatencyModel(LatencyModel):
    """Figure 4(b)'s miner speedup composed over a base model, pair by pair.

    Pairs where both endpoints are high-power miners read
    ``max(base * speedup, floor_ms)``; everything else passes through.  The
    diagonal is excluded from the edit, so ``pairwise(u, u)`` stays ``0``.
    """

    def __init__(
        self,
        base: LatencyModel,
        miner_ids: tuple[int, ...] | list[int] | np.ndarray,
        speedup: float = DEFAULT_MINER_SPEEDUP,
        floor_ms: float = 1.0,
    ) -> None:
        if not 0 < speedup <= 1:
            raise ValueError("speedup must be in (0, 1]")
        if floor_ms < 0:
            raise ValueError("floor_ms must be non-negative")
        miners = np.unique(np.asarray(miner_ids, dtype=np.int64))
        if miners.size and (miners.min() < 0 or miners.max() >= base.num_nodes):
            raise ValueError("miner ids out of range for the base model")
        self._base = base
        self._speedup = float(speedup)
        self._floor_ms = float(floor_ms)
        self._is_miner = np.zeros(base.num_nodes, dtype=bool)
        self._is_miner[miners] = True

    @property
    def num_nodes(self) -> int:
        return self._base.num_nodes

    @property
    def base(self) -> LatencyModel:
        return self._base

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        delta = np.array(self._base.pairwise(u, v), dtype=float)
        fast = self._is_miner[u] & self._is_miner[v] & (u != v)
        delta[fast] = np.maximum(delta[fast] * self._speedup, self._floor_ms)
        return delta


def apply_relay_overlay(
    base: LatencyModel,
    overlay: RelayNetworkOverlay,
    member_pair_latency_ms: float | None = None,
) -> RelayOverlayLatencyModel:
    """Lower latencies along the relay overlay.

    Tree-adjacent member pairs get ``overlay.link_latency_ms``.  If
    ``member_pair_latency_ms`` is given, *all* member pairs are capped at that
    value, modelling a well-provisioned relay backbone where any two relay
    nodes reach each other quickly through the operator's infrastructure.

    Returns a composition-aware wrapper: no dense matrix is materialised
    until (and unless) ``matrix_view`` or ``as_matrix`` is called.
    """
    return RelayOverlayLatencyModel(
        base, overlay, member_pair_latency_ms=member_pair_latency_ms
    )


def apply_miner_speedup(
    base: LatencyModel,
    miner_ids: tuple[int, ...] | list[int] | np.ndarray,
    speedup: float = DEFAULT_MINER_SPEEDUP,
    floor_ms: float = 1.0,
) -> MinerSpeedupLatencyModel:
    """Scale down latencies between the given miners (Figure 4(b) setting).

    The paper sets the link propagation latencies between high-power miners to
    be "much smaller than their default values"; ``speedup`` is the
    multiplicative factor applied (default 0.1), with a small floor so links
    never become free.

    Returns a composition-aware wrapper: no dense matrix is materialised
    until (and unless) ``matrix_view`` or ``as_matrix`` is called.
    """
    return MinerSpeedupLatencyModel(
        base, miner_ids, speedup=speedup, floor_ms=floor_ms
    )
