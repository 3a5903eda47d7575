"""The peer-to-peer overlay graph.

Connections in Bitcoin-like networks are *initiated* by one side (the
outgoing side) and *accepted* by the other (the incoming side), but once
established they are bidirectional: blocks flow both ways (Section 2.1).
:class:`P2PNetwork` therefore stores each connection once, in the outgoing
set of the node that initiated it, and keeps only a per-node count of the
incoming side: the ``din`` limit is the one fact the paper's connection rule
needs about it.  Propagation and the metrics read the undirected edge array
:meth:`P2PNetwork.to_numpy_edges`.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

import numpy as np

#: Most random candidates :meth:`P2PNetwork.redial` draws from the
#: generator at once.
DIAL_BATCH = 4096


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
        # How many outgoing sets hold each node.
        self._incoming_count: list[int] = [0] * num_nodes
        # Bumped by every successful edge mutation, so consumers that memoise
        # a view of the topology (the propagation engine's weight graph) can
        # tell when it went stale.
        self._topology_version = 0

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
    # Topology versioning
    # ------------------------------------------------------------------ #
    @property
    def topology_version(self) -> int:
        """Monotonic counter bumped by every successful edge mutation."""
        return self._topology_version

    # ------------------------------------------------------------------ #
    # Connection management
    # ------------------------------------------------------------------ #
    def outgoing_neighbors(self, node_id: int) -> frozenset[int]:
        """Neighbors ``node_id`` connected to (its ``Γ^o_v``)."""
        self._check_node(node_id)
        return frozenset(self._outgoing[node_id])

    def outgoing_slots_free(self, node_id: int) -> int:
        """Remaining outgoing connection budget of ``node_id``."""
        self._check_node(node_id)
        return self._out_degree - len(self._outgoing[node_id])

    def incoming_slots_free(self, node_id: int) -> int:
        """Remaining incoming connection budget of ``node_id``."""
        self._check_node(node_id)
        return self._max_incoming - self._incoming_count[node_id]

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
        self._incoming_count[target] += 1
        self._topology_version += 1
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
        self._incoming_count[target] -= 1
        self._topology_version += 1
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
        best-scoring subset and connect to ``num_random`` random peers for
        exploration.  A one-node call into :meth:`redial`, whose docstring
        gives the dial rule.  Returns the resulting outgoing neighbor set.
        """
        self._check_node(node_id)
        kept = np.fromiter({int(peer) for peer in keep}, dtype=np.int64)
        if node_id in kept:
            raise ConnectionError_("a node cannot keep itself as a neighbor")
        if kept.size + num_random > self._out_degree:
            raise ConnectionError_(
                "requested more outgoing connections than the out-degree budget"
            )
        offsets = np.zeros(self._num_nodes + 1, dtype=np.int64)
        offsets[node_id + 1 :] = kept.size
        self.redial(
            [node_id], candidates_rng, kept, offsets, degree=kept.size + num_random
        )
        return set(self._outgoing[node_id])

    def fill_random_outgoing(
        self, node_id: int, rng: np.random.Generator
    ) -> set[int]:
        """Fill all free outgoing slots of ``node_id`` with random peers.

        A one-node call into :meth:`redial` that keeps every current peer.
        """
        self._check_node(node_id)
        self.redial([node_id], rng)
        return set(self._outgoing[node_id])

    def redial(
        self,
        order: Sequence[int] | np.ndarray,
        rng: np.random.Generator,
        keep: np.ndarray | None = None,
        offsets: np.ndarray | None = None,
        degree: int | None = None,
    ) -> None:
        """Rewire the nodes of ``order``, one after the other, in that order.

        Node ``v`` keeps the peers ``keep[offsets[v]:offsets[v + 1]]``
        (``offsets`` is indexed by node id, like a CSR ``indptr``; with
        ``keep=None`` it keeps every current peer).  Its turn has three
        steps:

        1. drop every outgoing peer that is not kept;
        2. dial every kept peer it is not connected to;
        3. dial random peers until it has ``degree`` outgoing peers
           (default :attr:`out_degree`), or until ``max(20, 10 * slots) * 10``
           random attempts are spent, ``slots`` being the number missing.

        A dial fails, and the next candidate is tried, when the candidate
        is ``v`` itself, is already connected to ``v`` in either direction,
        or already has :attr:`max_incoming` incoming connections.  This is
        the only dial rule of the overlay.  :attr:`topology_version` rises
        when anything changed.

        **Invariant:** a turn changes the outgoing set of its node only.
        Disconnecting lowers a former peer's *incoming* count and connecting
        raises the new peer's; no other node's :meth:`outgoing_neighbors`
        changes.  ``PerigeeBase.update`` relies on this to score every node
        before any node rewires, and then to rewire them all in one call.

        **Pre-drawn candidates.** Random candidates are the draws
        ``rng.integers(0, num_nodes)`` would make one call at a time, taken
        from batches of up to :data:`DIAL_BATCH` draws.  At the end the
        generator is put back to its state before the first batch and
        advanced by exactly the number of candidates used, so it ends where
        the one-call-at-a-time loop would have left it.  That rests on
        ``Generator.integers(0, n, size=k)`` returning the values, and
        leaving the state, of ``k`` scalar calls, which NumPy does not
        promise; ``tests/test_redial.py::test_batched_integers_match_scalar_draws``
        pins it for the NumPy in use.
        """
        n = self._num_nodes
        order = np.asarray(order, dtype=np.int64)
        if order.size and (order.min() < 0 or order.max() >= n):
            raise IndexError("node id in order out of range")
        degree = self._out_degree if degree is None else degree
        outgoing = self._outgoing
        incoming = self._incoming_count
        max_incoming = self._max_incoming
        if keep is not None:
            keep = np.asarray(keep, dtype=np.int64)
            offsets = np.asarray(offsets, dtype=np.int64)
        # One-node calls use a handful of candidates; do not draw 4096.
        batch_size = min(DIAL_BATCH, 64 * order.size)
        # The batch stays an array: a candidate becomes a Python int only when
        # drawn, so the ints the outgoing sets keep are not scattered over
        # the memory of thousands of discarded ones.
        saved = None
        batch = np.zeros(0, dtype=np.int64)
        position = used = 0
        changed = False
        try:
            for node_id in order.tolist():
                mine = outgoing[node_id]
                if keep is not None:
                    kept = keep[offsets[node_id] : offsets[node_id + 1]].tolist()
                    dropped = mine.difference(kept)
                    if dropped:
                        mine -= dropped
                        for target in dropped:
                            incoming[target] -= 1
                        changed = True
                    if len(mine) < len(kept):
                        for target in kept:
                            if target not in mine:
                                self.connect(node_id, target)
                slots = degree - len(mine)
                if slots <= 0:
                    continue
                budget = max(20, 10 * slots) * 10
                attempts = established = 0
                while established < slots and attempts < budget:
                    attempts += 1
                    if position == len(batch):
                        if saved is None:
                            saved = rng.bit_generator.state
                        batch = rng.integers(0, n, size=batch_size)
                        position = 0
                    candidate = int(batch[position])
                    position += 1
                    used += 1
                    if (
                        candidate == node_id
                        or candidate in mine
                        or node_id in outgoing[candidate]
                        or incoming[candidate] >= max_incoming
                    ):
                        continue
                    mine.add(candidate)
                    incoming[candidate] += 1
                    established += 1
                    changed = True
        finally:
            if saved is not None:
                rng.bit_generator.state = saved
                rng.integers(0, n, size=used)
            if changed:
                self._topology_version += 1

    # ------------------------------------------------------------------ #
    # Views used by propagation and metrics
    # ------------------------------------------------------------------ #
    def edge_list(self) -> list[tuple[int, int]]:
        """Unique undirected edges as a sorted list of ``(u, v)`` with ``u < v``."""
        return [(u, v) for u, v in self.to_numpy_edges().tolist()]

    def num_edges(self) -> int:
        """Number of distinct undirected communication edges."""
        return int(self.to_numpy_edges().shape[0])

    def to_numpy_edges(self) -> np.ndarray:
        """Unique undirected edges as a sorted ``(E, 2)`` int64 array.

        Row ``(u, v)`` has ``u < v``; rows ascend by the canonical key
        ``u * N + v``, which also deduplicates a pair both endpoints
        initiated.
        """
        n = self._num_nodes
        counts = np.fromiter(
            (len(peers) for peers in self._outgoing), dtype=np.int64, count=n
        )
        initiators = np.repeat(np.arange(n, dtype=np.int64), counts)
        targets = np.fromiter(
            chain.from_iterable(self._outgoing),
            dtype=np.int64,
            count=initiators.size,
        )
        keys = np.unique(
            np.minimum(initiators, targets) * n + np.maximum(initiators, targets)
        )
        return np.stack([keys // n, keys % n], axis=1)

    def outgoing_csr(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Outgoing peers of ``nodes`` as CSR ``(indptr, peers)``.

        Node ``nodes[i]``'s peers are ``peers[indptr[i]:indptr[i + 1]]``,
        ascending: one sort of the ``i * N + peer`` keys, as in
        :meth:`to_numpy_edges`, instead of a sort per node.
        """
        n = self._num_nodes
        sets = [self._outgoing[node_id] for node_id in np.asarray(nodes).tolist()]
        counts = np.fromiter(map(len, sets), dtype=np.int64, count=len(sets))
        indptr = np.zeros(len(sets) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        owners = np.repeat(np.arange(len(sets), dtype=np.int64), counts) * n
        keys = np.fromiter(
            chain.from_iterable(sets), dtype=np.int64, count=owners.size
        )
        keys += owners
        keys.sort()
        keys -= owners
        return indptr, keys

    def make_fully_connected(self) -> None:
        """Turn the overlay into a complete graph (the "ideal" baseline).

        A clique violates Bitcoin's per-node connection budgets, so the
        budgets are raised to ``num_nodes - 1`` as part of this operation.
        Each pair is stored once, initiated by its lower id.  Used only by
        the fully-connected lower-bound baseline of the paper's figures.
        """
        n = self._num_nodes
        self._out_degree = n - 1
        self._max_incoming = n - 1
        self._outgoing = [set(range(node_id + 1, n)) for node_id in range(n)]
        self._incoming_count = list(range(n))
        self._topology_version += 1

    def copy(self) -> "P2PNetwork":
        """Deep copy of the overlay (used by experiments that snapshot topologies)."""
        clone = P2PNetwork(self._num_nodes, self._out_degree, self._max_incoming)
        clone._outgoing = [set(s) for s in self._outgoing]
        clone._incoming_count = list(self._incoming_count)
        return clone

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, object]:
        """JSON-serialisable snapshot of the overlay.

        Only the outgoing sets are captured (sorted, so the snapshot is
        canonical); the incoming counts follow from them and are rebuilt on
        restore.  Budgets are included because :meth:`make_fully_connected`
        raises them mid-run.
        """
        return {
            "num_nodes": self._num_nodes,
            "out_degree": self._out_degree,
            "max_incoming": self._max_incoming,
            "outgoing": [sorted(targets) for targets in self._outgoing],
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore the overlay captured by :meth:`state_dict`.

        The snapshot comes from disk, so all of it is checked before any
        state is replaced: a snapshot that breaks an invariant of
        :meth:`validate_invariants` raises ``ValueError`` and leaves the
        overlay as it was.  The restore bumps :attr:`topology_version`, so a
        weight graph memoised for the old topology is never served for the
        restored one.  Restoring sets from sorted lists is bit-identity safe:
        every RNG-consuming reader of the outgoing sets sorts them first or
        is insensitive to iteration order.
        """
        if int(state["num_nodes"]) != self._num_nodes:
            raise ValueError(
                f"checkpoint is for {state['num_nodes']} nodes, "
                f"network has {self._num_nodes}"
            )
        outgoing_lists = state["outgoing"]
        if len(outgoing_lists) != self._num_nodes:
            raise ValueError("checkpoint outgoing adjacency has wrong length")
        out_degree = int(state["out_degree"])
        max_incoming = int(state["max_incoming"])
        outgoing = [
            {int(target) for target in targets} for targets in outgoing_lists
        ]
        incoming_count = self._incoming_counts(outgoing, out_degree, max_incoming)
        self._out_degree = out_degree
        self._max_incoming = max_incoming
        self._outgoing = outgoing
        self._incoming_count = incoming_count
        self._topology_version += 1

    def validate_invariants(self) -> None:
        """Check structural invariants; raises ``ValueError`` on violation.

        Invariants: peer ids are in range, no node connects to itself,
        outgoing sets respect ``out_degree``, incoming counts respect
        ``max_incoming``, and each node's incoming count is the number of
        outgoing sets that hold it.
        """
        counts = self._incoming_counts(
            self._outgoing, self._out_degree, self._max_incoming
        )
        if counts != self._incoming_count:
            raise ValueError("incoming counts do not match the outgoing sets")

    def _incoming_counts(
        self, outgoing: list[set[int]], out_degree: int, max_incoming: int
    ) -> list[int]:
        """Incoming counts of ``outgoing`` (a bincount of its targets).

        Raises ``ValueError`` if ``outgoing`` holds an out-of-range id or a
        self-loop, or breaks either connection budget.
        """
        n = self._num_nodes
        for node_id, targets in enumerate(outgoing):
            if len(targets) > out_degree:
                raise ValueError(f"node {node_id} exceeds out-degree budget")
            if node_id in targets:
                raise ValueError(f"node {node_id} connects to itself")
            if targets and not (min(targets) >= 0 and max(targets) < n):
                raise ValueError(f"node {node_id} has a peer id out of range")
        counts = np.bincount(
            np.fromiter(chain.from_iterable(outgoing), dtype=np.int64),
            minlength=n,
        )
        if counts.max() > max_incoming:
            raise ValueError(f"node {int(counts.argmax())} exceeds incoming budget")
        return counts.tolist()

    def _check_node(self, node_id: int) -> None:
        if not 0 <= node_id < self._num_nodes:
            raise IndexError(f"node id {node_id} out of range")
