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
:meth:`PerigeeBase.update` scores every updating node once per round before
the RNG-consuming rewire loop runs (see its docstring for why that is exact).
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
from repro.telemetry.flight import get_flight_recorder
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
        """Algorithm 1 for every updating node, in two phases.

        (a) *Score*: every updating node's retained set is computed before
        the rewire, in chunks of :data:`SCORE_CHUNK_NODES` nodes.  This is
        exact because rewiring a node changes only its own outgoing set (the
        invariant documented on :meth:`P2PNetwork.replace_outgoing`), so
        each node's outgoing set at its turn equals the one it had at round
        start, and scorers are never handed ``rng``.

        (b) *Rewire*: nodes take their turn in ``rng.permutation`` order,
        exactly as a per-node loop would, and swap the peers they did not
        retain for random ones.
        """
        exploration = self.exploration_budget(context)
        retain_budget = max(0, network.out_degree - exploration)
        recorder = get_recorder()
        # Flight-recorder capture is read-only bookkeeping: when enabled we
        # note, per node, how many outgoing edges the rewire dropped/added
        # (against the set replace_outgoing actually installed — a random
        # redraw can re-add a dropped peer) and collect the timestamp blocks
        # the scorers read, scored for the recorder in one batched pass
        # after the loop.  Nothing here touches the RNG.
        flight = get_flight_recorder()
        flight_nodes: list[int] = []
        flight_dropped: list[int] = []
        flight_added: list[int] = []
        flight_blocks: list[np.ndarray] = []
        nodes_updated = 0
        neighbors_retained = 0
        with recorder.span("perigee.score"):
            offsets, kept, scored_blocks = self._score_updating_nodes(
                network, observations, retain_budget, flight.enabled
            )
        with recorder.span("perigee.rewire"):
            order = rng.permutation(network.num_nodes)
            for raw_id in order:
                node_id = int(raw_id)
                if not self.updates_node(node_id):
                    continue
                outgoing = network.outgoing_neighbors(node_id)
                if not outgoing:
                    filled = network.fill_random_outgoing(node_id, rng)
                    if flight.enabled:
                        flight_nodes.append(node_id)
                        flight_dropped.append(0)
                        flight_added.append(len(filled))
                    continue
                retained = kept[offsets[node_id] : offsets[node_id + 1]].tolist()
                if flight.enabled:
                    flight_blocks.append(scored_blocks[node_id])
                retained = {peer for peer in retained if peer in outgoing}
                self.on_neighbors_dropped(node_id, set(outgoing) - retained)
                nodes_updated += 1
                neighbors_retained += len(retained)
                resulting = network.replace_outgoing(
                    node_id,
                    retained,
                    rng,
                    num_random=network.out_degree - len(retained),
                )
                if flight.enabled:
                    flight_nodes.append(node_id)
                    flight_dropped.append(len(outgoing - resulting))
                    flight_added.append(len(resulting - outgoing))
        recorder.incr("perigee.nodes_updated", nodes_updated)
        recorder.incr("perigee.neighbors_retained", neighbors_retained)
        if flight.enabled:
            flight.record_rewires(flight_nodes, flight_dropped, flight_added)
            if flight_blocks:
                flight.record_scores(
                    batched_percentile_scores(flight_blocks, self._percentile)
                )

    def _score_updating_nodes(
        self,
        network: P2PNetwork,
        observations: RoundObservations,
        retain_budget: int,
        keep_blocks: bool,
    ) -> tuple[list[int], np.ndarray, dict[int, np.ndarray]]:
        """Phase (a) of :meth:`update`: score every updating node.

        Returns ``(offsets, kept, blocks)``: node ``v`` retains
        ``kept[offsets[v]:offsets[v + 1]]`` (stored flat, not as one set
        per node, to keep large overlays small), and ``blocks`` maps each
        scored node to its timestamp block when ``keep_blocks`` (the flight
        recorder reads them) and is empty otherwise.  Nodes are gathered and
        scored :data:`SCORE_CHUNK_NODES` at a time, which keeps the stacked
        temporaries at a few MB however large the overlay is.
        """
        nodes = [
            node_id
            for node_id in range(network.num_nodes)
            if self.updates_node(node_id)
        ]
        counts = np.zeros(network.num_nodes + 1, dtype=np.int64)
        parts: list[np.ndarray] = [np.zeros(0, dtype=np.int64)]
        blocks_by_node: dict[int, np.ndarray] = {}
        for start in range(0, len(nodes), SCORE_CHUNK_NODES):
            chunk: list[int] = []
            wanted: list[np.ndarray] = []
            for node_id in nodes[start : start + SCORE_CHUNK_NODES]:
                outgoing = network.outgoing_neighbors(node_id)
                if outgoing:
                    chunk.append(node_id)
                    wanted.append(
                        np.fromiter(
                            sorted(outgoing), dtype=np.int64, count=len(outgoing)
                        )
                    )
            if not chunk:
                continue
            blocks = observations.normalized_blocks(chunk, wanted)
            retained = self.select_retained_batch(
                chunk, wanted, blocks, retain_budget
            )
            counts[np.asarray(chunk, dtype=np.int64) + 1] = [
                len(peers) for peers in retained
            ]
            parts.append(
                np.fromiter(itertools.chain.from_iterable(retained), dtype=np.int64)
            )
            if keep_blocks:
                blocks_by_node.update(zip(chunk, blocks))
        return np.cumsum(counts).tolist(), np.concatenate(parts), blocks_by_node

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
