"""The peer-to-peer overlay graph.

Connections in Bitcoin-like networks are *initiated* by one side (the
outgoing side) and *accepted* by the other (the incoming side), but once
established they are bidirectional: blocks flow both ways (Section 2.1).
:class:`P2PNetwork` therefore tracks, for every node, the set of outgoing
neighbors it chose and the set of incoming neighbors that chose it, enforcing
the ``dout`` and ``din`` limits, while exposing an undirected adjacency view
for propagation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable, Iterator

import numpy as np

#: Retained change-log entries.  A Perigee round at out-degree 8 rewires at
#: most ~2 edges per node, so this window covers several full rounds even at
#: N=20k; consumers that fall behind it (or attach mid-run) simply rebuild.
MAX_CHANGE_LOG = 1 << 17


class ConnectionError_(RuntimeError):
    """Raised when an invalid connection operation is attempted."""


class P2PNetwork:
    """Directed-ownership / undirected-communication overlay graph.

    Parameters
    ----------
    num_nodes:
        Number of nodes; node ids are ``0 .. num_nodes - 1``.
    out_degree:
        Maximum number of outgoing connections per node (``dout``).
    max_incoming:
        Maximum number of incoming connections a node accepts (``din``).
        Connection attempts beyond this limit are declined, exactly as in the
        paper's setup ("If a node already has 20 incoming connections, any
        additional connection request is declined").
    """

    def __init__(
        self, num_nodes: int, out_degree: int = 8, max_incoming: int = 20
    ) -> None:
        if num_nodes < 2:
            raise ValueError("num_nodes must be at least 2")
        if out_degree < 1:
            raise ValueError("out_degree must be at least 1")
        if max_incoming < 1:
            raise ValueError("max_incoming must be at least 1")
        self._num_nodes = num_nodes
        self._out_degree = out_degree
        self._max_incoming = max_incoming
        self._outgoing: list[set[int]] = [set() for _ in range(num_nodes)]
        self._incoming: list[set[int]] = [set() for _ in range(num_nodes)]
        # Topology version + bounded change log.  Every successful edge
        # mutation bumps the version and appends one entry, so incremental
        # consumers (the propagation engine's graph/SSSP caches) can patch
        # their state from the delta instead of re-reading all N adjacency
        # sets.  ``_log_base_version`` is the oldest version the log can
        # still diff against; bulk rewrites and trimming advance it.
        self._topology_version = 0
        self._change_log: list[tuple[int, bool, int, int]] = []
        self._log_base_version = 0

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes in the overlay."""
        return self._num_nodes

    @property
    def out_degree(self) -> int:
        """Outgoing connection budget per node."""
        return self._out_degree

    @property
    def max_incoming(self) -> int:
        """Incoming connection budget per node."""
        return self._max_incoming

    def __len__(self) -> int:
        return self._num_nodes

    def node_ids(self) -> range:
        """Iterable of all node ids."""
        return range(self._num_nodes)

    # ------------------------------------------------------------------ #
    # Topology versioning (incremental-consumer support)
    # ------------------------------------------------------------------ #
    @property
    def topology_version(self) -> int:
        """Monotonic counter bumped by every successful edge mutation."""
        return self._topology_version

    def _record_change(self, added: bool, u: int, v: int) -> None:
        if u > v:
            u, v = v, u
        self._topology_version += 1
        self._change_log.append((self._topology_version, added, u, v))
        if len(self._change_log) > MAX_CHANGE_LOG:
            # Drop the older half; diffs against versions before the cut
            # return None and the consumer falls back to a full rebuild.
            cut = len(self._change_log) // 2
            self._log_base_version = self._change_log[cut - 1][0]
            del self._change_log[:cut]

    def _reset_change_log(self) -> None:
        """Invalidate all outstanding diffs after a bulk topology rewrite."""
        self._topology_version += 1
        self._change_log.clear()
        self._log_base_version = self._topology_version

    def changes_since(
        self, version: int
    ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]] | None:
        """Net undirected edge delta between ``version`` and now.

        Returns ``(added, removed)`` as lists of canonical ``(u, v)`` pairs
        with ``u < v``, or ``None`` when ``version`` predates the retained
        log window (the caller must rebuild from scratch).  A pair touched
        multiple times contributes at most once: what matters is its
        membership at ``version`` versus its membership now.
        """
        if version == self._topology_version:
            return [], []
        if version > self._topology_version or version < self._log_base_version:
            return None
        log = self._change_log
        # Binary search for the first entry with entry_version > version
        # (entry versions are strictly increasing).
        lo, hi = 0, len(log)
        while lo < hi:
            mid = (lo + hi) // 2
            if log[mid][0] <= version:
                lo = mid + 1
            else:
                hi = mid
        first_op: dict[tuple[int, int], bool] = {}
        last_op: dict[tuple[int, int], bool] = {}
        for _, added, u, v in log[lo:]:
            pair = (u, v)
            if pair not in first_op:
                first_op[pair] = added
            last_op[pair] = added
        added_pairs: list[tuple[int, int]] = []
        removed_pairs: list[tuple[int, int]] = []
        for pair, final_added in last_op.items():
            was_present = not first_op[pair]  # first add => was absent
            if final_added and not was_present:
                added_pairs.append(pair)
            elif not final_added and was_present:
                removed_pairs.append(pair)
        return added_pairs, removed_pairs

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    def outgoing_neighbors(self, node_id: int) -> frozenset[int]:
        """Neighbors ``node_id`` connected to (its ``Γ^o_v``)."""
        self._check_node(node_id)
        return frozenset(self._outgoing[node_id])

    def incoming_neighbors(self, node_id: int) -> frozenset[int]:
        """Neighbors that connected to ``node_id``."""
        self._check_node(node_id)
        return frozenset(self._incoming[node_id])

    def neighbors(self, node_id: int) -> frozenset[int]:
        """All communication neighbors of ``node_id`` (its ``Γ_v``)."""
        self._check_node(node_id)
        return frozenset(self._outgoing[node_id] | self._incoming[node_id])

    def degree(self, node_id: int) -> int:
        """Number of distinct communication neighbors."""
        return len(self.neighbors(node_id))

    def outgoing_slots_free(self, node_id: int) -> int:
        """Remaining outgoing connection budget of ``node_id``."""
        self._check_node(node_id)
        return self._out_degree - len(self._outgoing[node_id])

    def incoming_slots_free(self, node_id: int) -> int:
        """Remaining incoming connection budget of ``node_id``."""
        self._check_node(node_id)
        return self._max_incoming - len(self._incoming[node_id])

    def can_accept_incoming(self, node_id: int) -> bool:
        """Whether ``node_id`` would accept one more incoming connection."""
        return self.incoming_slots_free(node_id) > 0

    def has_edge(self, u: int, v: int) -> bool:
        """Whether a connection exists between ``u`` and ``v`` in either direction."""
        self._check_node(u)
        self._check_node(v)
        return v in self._outgoing[u] or u in self._outgoing[v]

    def connect(self, initiator: int, target: int) -> bool:
        """Attempt an outgoing connection from ``initiator`` to ``target``.

        Returns ``True`` if the connection was established.  The attempt fails
        (returning ``False``) when the two nodes are already connected in
        either direction, when the initiator has no outgoing slot left, or
        when the target declines because it reached its incoming limit.
        Self-connections raise :class:`ConnectionError_`.
        """
        self._check_node(initiator)
        self._check_node(target)
        if initiator == target:
            raise ConnectionError_("a node cannot connect to itself")
        if self.has_edge(initiator, target):
            return False
        if self.outgoing_slots_free(initiator) <= 0:
            return False
        if not self.can_accept_incoming(target):
            return False
        self._outgoing[initiator].add(target)
        self._incoming[target].add(initiator)
        self._record_change(True, initiator, target)
        return True

    def disconnect(self, initiator: int, target: int) -> bool:
        """Tear down the outgoing connection ``initiator -> target``.

        Returns ``True`` if such a connection existed.  Connections owned by
        the other side are not affected (a node can only drop connections it
        initiated, mirroring how the protocols of the paper operate on
        ``Γ^o_v`` only).
        """
        self._check_node(initiator)
        self._check_node(target)
        if target not in self._outgoing[initiator]:
            return False
        self._outgoing[initiator].discard(target)
        self._incoming[target].discard(initiator)
        self._record_change(False, initiator, target)
        return True

    def disconnect_all_outgoing(self, node_id: int) -> None:
        """Drop every outgoing connection of ``node_id``."""
        self._check_node(node_id)
        for target in list(self._outgoing[node_id]):
            self.disconnect(node_id, target)

    def replace_outgoing(
        self, node_id: int, keep: Iterable[int], candidates_rng: np.random.Generator,
        num_random: int = 0,
    ) -> set[int]:
        """Set the outgoing neighbors of ``node_id`` to ``keep`` plus random peers.

        This is the primitive behind Algorithm 1's final two steps: retain the
        best-scoring subset and connect to a few random peers for exploration.
        Connections in ``keep`` that already exist are preserved (not torn
        down and re-established).  Random peers that decline (full incoming
        capacity) or are already neighbors are skipped and another candidate
        is drawn, up to a bounded number of attempts.

        Returns the resulting outgoing neighbor set.

        **Invariant:** this method and :meth:`fill_random_outgoing` change
        the outgoing set of ``node_id`` only.  Disconnecting removes
        ``node_id`` from a former peer's *incoming* set and connecting adds
        it to the new peer's *incoming* set; no other node's
        :meth:`outgoing_neighbors` changes.  ``PerigeeBase.update`` relies on
        this to score every node before any node rewires.
        """
        self._check_node(node_id)
        keep_set = {int(peer) for peer in keep}
        if node_id in keep_set:
            raise ConnectionError_("a node cannot keep itself as a neighbor")
        if len(keep_set) + num_random > self._out_degree:
            raise ConnectionError_(
                "requested more outgoing connections than the out-degree budget"
            )
        # Drop outgoing connections that are not retained.
        for target in list(self._outgoing[node_id]):
            if target not in keep_set:
                self.disconnect(node_id, target)
        # (Re-)establish retained connections.  A retained peer may decline if
        # it filled up in the meantime; those slots fall through to random
        # exploration below.
        for target in keep_set:
            if target not in self._outgoing[node_id]:
                self.connect(node_id, target)
        # Exploration: connect to random previously-unconnected peers.
        slots = min(
            num_random + (len(keep_set) - len(self._outgoing[node_id])),
            self.outgoing_slots_free(node_id),
        )
        self._connect_random(node_id, slots, candidates_rng)
        return set(self._outgoing[node_id])

    def fill_random_outgoing(
        self, node_id: int, rng: np.random.Generator
    ) -> set[int]:
        """Fill all free outgoing slots of ``node_id`` with random peers."""
        self._check_node(node_id)
        self._connect_random(node_id, self.outgoing_slots_free(node_id), rng)
        return set(self._outgoing[node_id])

    def _connect_random(
        self, node_id: int, slots: int, rng: np.random.Generator
    ) -> None:
        attempts_budget = max(20, 10 * slots) * 10
        attempts = 0
        established = 0
        while established < slots and attempts < attempts_budget:
            attempts += 1
            candidate = int(rng.integers(0, self._num_nodes))
            if candidate == node_id:
                continue
            if self.connect(node_id, candidate):
                established += 1

    # ------------------------------------------------------------------ #
    # Views used by propagation and metrics
    # ------------------------------------------------------------------ #
    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected communication edges as ``(u, v)`` with ``u < v``."""
        return iter(self.edge_list())

    def edge_list(self) -> list[tuple[int, int]]:
        """Unique undirected edges as a sorted list of ``(u, v)`` with ``u < v``."""
        seen: set[tuple[int, int]] = set()
        for u in range(self._num_nodes):
            for v in self._outgoing[u]:
                seen.add((u, v) if u < v else (v, u))
        return sorted(seen)

    def num_edges(self) -> int:
        """Number of distinct undirected communication edges."""
        return len(self.edge_list())

    def adjacency_lists(self) -> list[list[int]]:
        """Undirected adjacency lists, indexed by node id."""
        adjacency: list[set[int]] = [set() for _ in range(self._num_nodes)]
        for u, v in self.edge_list():
            adjacency[u].add(v)
            adjacency[v].add(u)
        return [sorted(neighbors) for neighbors in adjacency]

    def to_numpy_edges(self) -> np.ndarray:
        """Undirected edges as an ``(E, 2)`` integer array."""
        edge_list = self.edge_list()
        if not edge_list:
            return np.zeros((0, 2), dtype=int)
        return np.array(edge_list, dtype=int)

    def purge_node(self, node_id: int) -> int:
        """Drop every connection touching ``node_id`` (it left the network).

        Unlike :meth:`disconnect_all_outgoing`, this also tears down
        connections *initiated by other nodes* towards ``node_id`` — the
        behaviour of a TCP peer disappearing.  Returns the number of
        connections removed.  Used by the churn experiments.
        """
        self._check_node(node_id)
        removed = 0
        for target in list(self._outgoing[node_id]):
            if self.disconnect(node_id, target):
                removed += 1
        for initiator in list(self._incoming[node_id]):
            if self.disconnect(initiator, node_id):
                removed += 1
        return removed

    def make_fully_connected(self) -> None:
        """Turn the overlay into a complete graph (the "ideal" baseline).

        A clique violates Bitcoin's per-node connection budgets, so the
        budgets are raised to ``num_nodes - 1`` as part of this operation.
        Used only by the fully-connected lower-bound baseline of the paper's
        figures.
        """
        n = self._num_nodes
        self._out_degree = n - 1
        self._max_incoming = n - 1
        self._outgoing = [
            {peer for peer in range(n) if peer != node_id} for node_id in range(n)
        ]
        self._incoming = [
            {peer for peer in range(n) if peer != node_id} for node_id in range(n)
        ]
        self._reset_change_log()

    def copy(self) -> "P2PNetwork":
        """Deep copy of the overlay (used by experiments that snapshot topologies)."""
        clone = P2PNetwork(self._num_nodes, self._out_degree, self._max_incoming)
        clone._outgoing = [set(s) for s in self._outgoing]
        clone._incoming = [set(s) for s in self._incoming]
        clone._reset_change_log()
        return clone

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, object]:
        """JSON-serialisable snapshot of the overlay.

        Only the outgoing sets are captured (sorted, so the snapshot is
        canonical); the incoming sets are their exact mirror and are rebuilt
        on restore.  Budgets are included because
        :meth:`make_fully_connected` raises them mid-run.
        """
        return {
            "num_nodes": self._num_nodes,
            "out_degree": self._out_degree,
            "max_incoming": self._max_incoming,
            "outgoing": [sorted(targets) for targets in self._outgoing],
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore the overlay captured by :meth:`state_dict`.

        The change log is reset afterwards, so incremental consumers keyed to
        :attr:`topology_version` observe a version they cannot diff against
        and fall back to a full rebuild — restored state never aliases stale
        deltas.  Restoring sets from sorted lists is bit-identity safe: every
        RNG-consuming reader of the outgoing sets sorts them first or is
        insensitive to iteration order.
        """
        if int(state["num_nodes"]) != self._num_nodes:
            raise ValueError(
                f"checkpoint is for {state['num_nodes']} nodes, "
                f"network has {self._num_nodes}"
            )
        outgoing_lists = state["outgoing"]
        if len(outgoing_lists) != self._num_nodes:
            raise ValueError("checkpoint outgoing adjacency has wrong length")
        self._out_degree = int(state["out_degree"])
        self._max_incoming = int(state["max_incoming"])
        outgoing = [
            {int(target) for target in targets} for targets in outgoing_lists
        ]
        incoming: list[set[int]] = [set() for _ in range(self._num_nodes)]
        for node_id, targets in enumerate(outgoing):
            for target in targets:
                incoming[target].add(node_id)
        self._outgoing = outgoing
        self._incoming = incoming
        self._reset_change_log()
        self.validate_invariants()

    def degree_histogram(self) -> dict[int, int]:
        """Map from communication degree to the number of nodes with that degree."""
        histogram: dict[int, int] = defaultdict(int)
        for node_id in range(self._num_nodes):
            histogram[self.degree(node_id)] += 1
        return dict(histogram)

    def is_connected(self) -> bool:
        """Whether the undirected communication graph is connected."""
        adjacency = self.adjacency_lists()
        visited = [False] * self._num_nodes
        stack = [0]
        visited[0] = True
        count = 1
        while stack:
            current = stack.pop()
            for neighbor in adjacency[current]:
                if not visited[neighbor]:
                    visited[neighbor] = True
                    count += 1
                    stack.append(neighbor)
        return count == self._num_nodes

    def validate_invariants(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on violation.

        Invariants: outgoing sets respect ``out_degree``, incoming sets respect
        ``max_incoming``, and the incoming sets exactly mirror the outgoing
        sets.
        """
        for node_id in range(self._num_nodes):
            assert len(self._outgoing[node_id]) <= self._out_degree, (
                f"node {node_id} exceeds out-degree budget"
            )
            assert len(self._incoming[node_id]) <= self._max_incoming, (
                f"node {node_id} exceeds incoming budget"
            )
            assert node_id not in self._outgoing[node_id], "self-loop detected"
        for u in range(self._num_nodes):
            for v in self._outgoing[u]:
                assert u in self._incoming[v], (
                    f"outgoing edge {u}->{v} missing from incoming set of {v}"
                )
        for v in range(self._num_nodes):
            for u in self._incoming[v]:
                assert v in self._outgoing[u], (
                    f"incoming edge {u}->{v} missing from outgoing set of {u}"
                )

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self._num_nodes:
            raise IndexError(f"node id {node_id} out of range")
