"""Shared skeleton of the Perigee variants (Algorithm 1).

Every variant follows the same per-round template for each node ``v``:

1. normalise the round's observations (Equation 2);
2. score the current *outgoing* neighbors ``Γ^o_v`` using the variant's
   scoring method;
3. retain the best ``d_v - e_v`` of them;
4. connect to ``e_v`` random peers for exploration.

The base class implements the template, the topology initialisation (an
arbitrary random topology, as if obtained from a bootstrapping server) and the
mechanics of retaining/replacing connections under the incoming-capacity
limits.  Subclasses provide :meth:`PerigeeBase.select_retained_batch`, which
scores many nodes in one vectorised pass from their normalised observations,
each a ``(neighbors, blocks)`` timestamp block gathered from the round's
columnar :class:`~repro.core.observations.RoundObservations`.
:meth:`PerigeeBase.update` scores every updating node once per round, then
rewires them all with one RNG-consuming :meth:`P2PNetwork.redial` call (see
its docstring for why that is exact).
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from repro.core.network import P2PNetwork
from repro.core.observations import RoundObservations, batched_percentile_scores
from repro.protocols.base import (
    NeighborSelectionProtocol,
    ProtocolContext,
    random_initial_topology,
)
from repro.telemetry.flight import FlightRecorder, get_flight_recorder
from repro.telemetry.recorder import get_recorder

#: Nodes gathered and scored together by the scoring phase of an update.
#: Bounds the phase's stacked temporaries (a few MB at out-degree 8 and
#: ~50 blocks a round) independently of the overlay size.
SCORE_CHUNK_NODES = 1024


class PerigeeBase(NeighborSelectionProtocol):
    """Common round-update skeleton for Perigee variants.

    Parameters
    ----------
    exploration_peers:
        Number of random exploration connections per round (``e_v``).  When
        ``None`` the value from the simulation configuration is used.
    percentile:
        Percentile of the timestamp multiset used for scoring (90 in the
        paper).
    """

    is_adaptive = True

    def __init__(
        self,
        exploration_peers: int | None = None,
        percentile: float = 90.0,
    ) -> None:
        if exploration_peers is not None and exploration_peers < 0:
            raise ValueError("exploration_peers must be non-negative")
        if not 0.0 < percentile <= 100.0:
            raise ValueError("percentile must be in (0, 100]")
        self._exploration_peers = exploration_peers
        self._percentile = percentile

    @property
    def percentile(self) -> float:
        return self._percentile

    def exploration_budget(self, context: ProtocolContext) -> int:
        """Effective ``e_v`` for this run."""
        if self._exploration_peers is not None:
            return self._exploration_peers
        return context.config.exploration_peers

    # ------------------------------------------------------------------ #
    # Topology initialisation
    # ------------------------------------------------------------------ #
    def build_topology(
        self,
        context: ProtocolContext,
        network: P2PNetwork,
        rng: np.random.Generator,
    ) -> None:
        random_initial_topology(network, rng)

    # ------------------------------------------------------------------ #
    # Round update (Algorithm 1)
    # ------------------------------------------------------------------ #
    def updates_node(self, node_id: int) -> bool:
        """Whether ``node_id`` runs the per-round update (all nodes by default).

        Mixed-deployment wrappers override this to restrict Algorithm 1 to
        adopter nodes.
        """
        del node_id
        return True

    def update(
        self,
        context: ProtocolContext,
        network: P2PNetwork,
        observations: RoundObservations,
        rng: np.random.Generator,
    ) -> None:
        """Algorithm 1 for every updating node, in two bulk phases.

        (a) *Score*: every updating node's retained set is computed before
        the rewire, in chunks of :data:`SCORE_CHUNK_NODES` nodes.  This is
        exact because rewiring a node changes only its own outgoing set (the
        invariant documented on :meth:`P2PNetwork.redial`), so each node's
        outgoing set at its turn equals the one it had at round start, and
        scorers are never handed ``rng``.

        (b) *Rewire*: one :meth:`P2PNetwork.redial` call takes the updating
        nodes in ``rng.permutation`` order, exactly as a per-node loop would:
        each keeps its retained peers and swaps the rest for random ones (a
        node that had no peers fills all its slots).
        """
        exploration = self.exploration_budget(context)
        retain_budget = max(0, network.out_degree - exploration)
        recorder = get_recorder()
        # Flight-recorder capture is read-only bookkeeping: when enabled we
        # note, per node, how many outgoing edges the rewire dropped/added
        # (against the set it actually installed — a random redraw can
        # re-add a dropped peer) and score the timestamp blocks the scorers
        # read for the recorder in one batched pass.  Nothing here touches
        # the RNG.
        flight = get_flight_recorder()
        updating = np.fromiter(
            map(self.updates_node, range(network.num_nodes)),
            dtype=bool,
            count=network.num_nodes,
        )
        with recorder.span("perigee.score"):
            offsets, kept, scored, blocks = self._score_updating_nodes(
                network,
                observations,
                np.flatnonzero(updating),
                retain_budget,
                flight.enabled,
            )
        with recorder.span("perigee.rewire"):
            order = rng.permutation(network.num_nodes)
            if not updating.all():
                order = order[updating[order]]
            # Only variants that keep per-neighbor history (UCB) override
            # the hook; the others skip the per-node walk it needs.
            hook = type(self).on_neighbors_dropped
            if hook is not PerigeeBase.on_neighbors_dropped:
                for node_id in order.tolist():
                    outgoing = network.outgoing_neighbors(node_id)
                    if outgoing:
                        retained = kept[offsets[node_id] : offsets[node_id + 1]]
                        self.on_neighbors_dropped(
                            node_id, set(outgoing.difference(retained.tolist()))
                        )
            if flight.enabled:
                before = [network.outgoing_neighbors(v) for v in order.tolist()]
            network.redial(order, rng, kept, offsets)
        recorder.incr("perigee.nodes_updated", scored)
        recorder.incr("perigee.neighbors_retained", int(kept.size))
        if flight.enabled:
            self._record_flight(flight, network, order.tolist(), before, blocks)

    def _record_flight(
        self,
        flight: FlightRecorder,
        network: P2PNetwork,
        order: list[int],
        before: list[frozenset[int]],
        scored_blocks: dict[int, np.ndarray],
    ) -> None:
        """Flight rows of one rewire: per node, peers dropped and added, in
        turn order, and the scores of the blocks the scorers read."""
        dropped: list[int] = []
        added: list[int] = []
        blocks: list[np.ndarray] = []
        for node_id, outgoing in zip(order, before):
            resulting = network.outgoing_neighbors(node_id)
            dropped.append(len(outgoing - resulting))
            added.append(len(resulting - outgoing))
            if outgoing:
                blocks.append(scored_blocks[node_id])
        flight.record_rewires(order, dropped, added)
        if blocks:
            flight.record_scores(batched_percentile_scores(blocks, self._percentile))

    def _score_updating_nodes(
        self,
        network: P2PNetwork,
        observations: RoundObservations,
        nodes: np.ndarray,
        retain_budget: int,
        keep_blocks: bool,
    ) -> tuple[np.ndarray, np.ndarray, int, dict[int, np.ndarray]]:
        """Phase (a) of :meth:`update`: score every node of ``nodes``.

        Returns ``(offsets, kept, scored, blocks)``: node ``v`` retains
        ``kept[offsets[v]:offsets[v + 1]]`` (stored flat, not as one set
        per node, to keep large overlays small), ``scored`` counts the
        nodes that had outgoing peers to score, and ``blocks`` maps each
        scored node to its timestamp block when ``keep_blocks`` (the flight
        recorder reads them) and is empty otherwise.  Nodes are gathered and
        scored :data:`SCORE_CHUNK_NODES` at a time, which keeps the stacked
        temporaries at a few MB however large the overlay is.
        """
        offsets = np.zeros(network.num_nodes + 1, dtype=np.int64)
        parts: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        blocks_by_node: dict[int, np.ndarray] = {}
        scored = 0
        for start in range(0, nodes.size, SCORE_CHUNK_NODES):
            members = nodes[start : start + SCORE_CHUNK_NODES]
            indptr, peers = network.outgoing_csr(members)
            bounds = indptr.tolist()
            chunk: list[int] = []
            wanted: list[np.ndarray] = []
            for node_id, lo, hi in zip(members.tolist(), bounds, bounds[1:]):
                if hi > lo:
                    chunk.append(node_id)
                    wanted.append(peers[lo:hi])
            if not chunk:
                continue
            blocks = observations.normalized_blocks(chunk, wanted)
            retained = self.select_retained_batch(
                chunk, wanted, blocks, retain_budget
            )
            offsets[np.asarray(chunk, dtype=np.int64) + 1] = [
                len(picked) for picked in retained
            ]
            parts.append(
                np.fromiter(itertools.chain.from_iterable(retained), dtype=np.int64)
            )
            scored += len(chunk)
            if keep_blocks:
                blocks_by_node.update(zip(chunk, blocks))
        np.cumsum(offsets, out=offsets)
        return offsets, np.concatenate(parts), scored, blocks_by_node

    def select_retained_batch(
        self,
        node_ids: Sequence[int],
        neighbors: Sequence[np.ndarray],
        times: Sequence[np.ndarray],
        retain_budget: int,
    ) -> list[set[int]]:
        """Choose which outgoing neighbors each node keeps for the next round.

        ``neighbors[i]`` is the ascending array of node ``node_ids[i]``'s
        current outgoing neighbors and ``times[i]`` the matching
        ``(len(neighbors[i]), B_v)`` time-normalised timestamp block
        (Equation 2 already applied; blocks the node never heard of are
        dropped, deliveries that never happened are ``inf``).  Element ``i``
        of the result is a subset of ``neighbors[i]`` of size at most
        ``retain_budget``.  Every Perigee variant implements this; a scorer
        that needs randomness owns its generator, because the round's
        ``rng`` belongs to the rewire.
        """
        raise NotImplementedError(
            "Perigee variants must implement select_retained_batch()"
        )

    def select_retained_block(
        self,
        node_id: int,
        neighbors: np.ndarray,
        times: np.ndarray,
        retain_budget: int,
    ) -> set[int]:
        """One node's retained set: a one-node call into the batch scorer."""
        return self.select_retained_batch(
            [node_id], [neighbors], [times], retain_budget
        )[0]

    def on_neighbors_dropped(self, node_id: int, dropped: set[int]) -> None:
        """Hook for variants that keep per-neighbor history (UCB)."""

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["percentile"] = self._percentile
        info["exploration_peers"] = self._exploration_peers
        return info
