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
limits.  Subclasses provide :meth:`select_retained_block`, which receives the
node's normalised observations as a ``(neighbors, blocks)`` timestamp block —
when the simulator hands the update an
:class:`~repro.core.observations.ObservationMap`, those blocks are sliced
straight out of the round's columnar
:class:`~repro.core.observations.RoundObservations` without materialising any
per-node dictionaries; plain ``{node_id: ObservationSet}`` mappings are
converted per node and behave identically.

The built-in variants also provide :meth:`PerigeeBase.select_retained_batch`,
which scores many nodes in one vectorised pass; :meth:`PerigeeBase.update`
then scores every node once per round before the RNG-consuming rewire loop
runs (see its docstring for why that is exact).
"""

from __future__ import annotations

import itertools
from typing import Mapping, Sequence

import numpy as np

from repro.core.network import P2PNetwork
from repro.core.observations import (
    NormalizedRowsProvider,
    ObservationSet,
    batched_percentile_scores,
    normalized_observation_provider,
)
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


def _defining_class(cls: type, name: str) -> type | None:
    """The class in ``cls``'s MRO whose own namespace defines ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    return None


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

    @property
    def scores_in_batch(self) -> bool:
        """Whether :meth:`update` scores every node up front, in one pass.

        True when the class that supplies :meth:`select_retained_batch` also
        supplies :meth:`select_retained_block` — the built-in variants, whose
        block scorer is a one-node call into the batch.  A subclass that
        overrides only the per-node scorer (possibly drawing from ``rng``)
        keeps being called per node, inside the rewire loop.
        """
        batch_owner = _defining_class(type(self), "select_retained_batch")
        return batch_owner is not PerigeeBase and batch_owner is (
            _defining_class(type(self), "select_retained_block")
        )

    def update(
        self,
        context: ProtocolContext,
        network: P2PNetwork,
        observations: Mapping[int, ObservationSet],
        rng: np.random.Generator,
    ) -> None:
        """Algorithm 1 for every updating node, in two phases.

        (a) *Score*: when :attr:`scores_in_batch`, every updating node's
        retained set is computed before the rewire, in chunks of
        :data:`SCORE_CHUNK_NODES` nodes.  This is exact because rewiring a
        node changes only its own outgoing set (the invariant documented on
        :meth:`P2PNetwork.replace_outgoing`), so each node's outgoing set at
        its turn equals the one it had at round start, and the built-in
        scorers draw nothing from ``rng``.

        (b) *Rewire*: nodes take their turn in ``rng.permutation`` order,
        exactly as a per-node loop would; variants without a batch scorer
        are scored here, one node at a time.
        """
        exploration = self.exploration_budget(context)
        retain_budget = max(0, network.out_degree - exploration)
        # Variants that only implement the legacy ObservationSet entry point
        # get the full per-node set with its real (global) block ids — some
        # third-party scorers accumulate observations across rounds and rely
        # on the simulator's global block numbering.
        legacy_only = (
            type(self).select_retained_block is PerigeeBase.select_retained_block
            and type(self).select_retained is not PerigeeBase.select_retained
        )
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
        batched = self.scores_in_batch
        with recorder.span("perigee.score"):
            provider = (
                None
                if legacy_only
                else normalized_observation_provider(observations)
            )
            if batched:
                offsets, kept, scored_blocks = self._score_updating_nodes(
                    network, observations, provider, retain_budget, flight.enabled
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
                if batched:
                    retained = kept[offsets[node_id] : offsets[node_id + 1]].tolist()
                    if flight.enabled:
                        flight_blocks.append(scored_blocks[node_id])
                elif legacy_only:
                    node_observations = observations.get(node_id)
                    if node_observations is None:
                        node_observations = ObservationSet(node_id=node_id)
                    retained = self.select_retained(
                        node_id=node_id,
                        outgoing=set(outgoing),
                        observations=node_observations.normalized(),
                        retain_budget=retain_budget,
                        rng=rng,
                    )
                else:
                    neighbors = np.fromiter(
                        sorted(outgoing), dtype=np.int64, count=len(outgoing)
                    )
                    times = provider(node_id, neighbors)
                    if flight.enabled:
                        flight_blocks.append(times)
                    retained = self.select_retained_block(
                        node_id=node_id,
                        neighbors=neighbors,
                        times=times,
                        retain_budget=retain_budget,
                        rng=rng,
                    )
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
        observations: Mapping[int, ObservationSet],
        provider: NormalizedRowsProvider,
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
        round_observations = getattr(observations, "round_observations", None)
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
            if round_observations is not None:
                blocks = round_observations.normalized_blocks(chunk, wanted)
            else:
                blocks = [
                    provider(node_id, ids) for node_id, ids in zip(chunk, wanted)
                ]
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
        """Retained sets for many nodes at once (the batch scorer).

        Element ``i`` must equal ``select_retained_block(node_ids[i],
        neighbors[i], times[i], retain_budget, rng)`` — same arguments, no
        RNG.  Variants that provide it also implement
        :meth:`select_retained_block` as a one-node call into it, so each
        variant keeps a single scoring algorithm; see :attr:`scores_in_batch`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} scores one node at a time"
        )

    def select_retained_block(
        self,
        node_id: int,
        neighbors: np.ndarray,
        times: np.ndarray,
        retain_budget: int,
        rng: np.random.Generator,
    ) -> set[int]:
        """Choose which outgoing neighbors to keep for the next round.

        ``neighbors`` is the ascending array of the node's current outgoing
        neighbors and ``times`` the matching ``(len(neighbors), B_v)``
        time-normalised timestamp block (Equation 2 already applied; blocks
        the node never heard of are dropped, deliveries that never happened
        are ``inf``).  Implementations return a subset of ``neighbors`` of
        size at most ``retain_budget``.

        Variants implement *either* this array entry point (preferred — it is
        the hot path) *or* the legacy :meth:`select_retained`; each default
        implementation converts and delegates to the other, so existing
        third-party protocols written against the ObservationSet interface
        keep working unchanged.  (`update` routes legacy-only variants
        through the real per-node sets with their global block ids; this
        direct bridge only exists for callers holding a bare timestamp
        block, where ids are synthesised as ``0..B_v-1``.)
        """
        if type(self).select_retained is PerigeeBase.select_retained:
            raise NotImplementedError(
                "Perigee variants must implement select_retained_block() "
                "(or the legacy select_retained())"
            )
        observations = ObservationSet(node_id=node_id)
        neighbor_ids = neighbors.tolist()
        for block_index, column in enumerate(times.T.tolist()):
            observations._by_block[block_index] = dict(
                zip(neighbor_ids, column)
            )
        return self.select_retained(
            node_id=node_id,
            outgoing=set(neighbor_ids),
            observations=observations,
            retain_budget=retain_budget,
            rng=rng,
        )

    def select_retained(
        self,
        node_id: int,
        outgoing: set[int],
        observations: ObservationSet,
        retain_budget: int,
        rng: np.random.Generator,
    ) -> set[int]:
        """Legacy per-node entry point over a normalised :class:`ObservationSet`.

        Converts the set into the array layout once and delegates to
        :meth:`select_retained_block`; kept for callers that drive Algorithm 1
        themselves (churn experiments, tests) and as the extension point of
        dict-based third-party variants.
        """
        neighbors = np.fromiter(
            sorted(int(peer) for peer in outgoing),
            dtype=np.int64,
            count=len(outgoing),
        )
        times = observations.times_block(neighbors)
        return self.select_retained_block(
            node_id=node_id,
            neighbors=neighbors,
            times=times,
            retain_budget=retain_budget,
            rng=rng,
        )

    def on_neighbors_dropped(self, node_id: int, dropped: set[int]) -> None:
        """Hook for variants that keep per-neighbor history (UCB)."""

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["percentile"] = self._percentile
        info["exploration_peers"] = self._exploration_peers
        return info
