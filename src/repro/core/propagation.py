"""Analytic block-propagation engine.

Under the system model of Section 2, a node that mines a block (or finishes
validating a received block) immediately starts relaying it to every neighbor
``v``, and the relay over link ``(u, v)`` takes the constant time
``δ(u, v)``.  The arrival time of a block at every node is therefore the
length of a shortest path from the miner, where:

* each traversed link ``(u, v)`` contributes ``δ(u, v)``, and
* each intermediate node ``u`` contributes its validation delay ``Δ_u``
  (the miner does not validate its own block).

This engine computes those arrival times exactly with a sparse Dijkstra pass
(SciPy's C implementation) for the paper's default setting (small blocks, no
bandwidth constraint).  The integration tests check it against an
independent label-setting reference.

Besides arrival times, the engine produces the *per-neighbor forwarding
times* each node observes — the raw material for Perigee's observation sets:
``t^b_{u,v} = arrival(u) + Δ_u + δ(u, v)`` for every communication edge
``(u, v)`` (with ``Δ`` omitted when ``u`` is the miner).
:meth:`PropagationEngine.round_observations` emits them for a whole round
as a receiver-sorted :class:`~repro.core.observations.RoundObservations`
with one ``(2E, B)`` allocation, reading the edge list and link latencies
from the same cached arrays the weight graph is built from.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.core.network import P2PNetwork
from repro.core.observations import RoundObservations
from repro.latency.base import LatencyModel
from repro.telemetry.recorder import get_recorder

class _GraphMemo(NamedTuple):
    """One network's weight graph at one topology version.

    ``pairs``/``delta`` are the canonical sorted edge array and its link
    latencies (what :meth:`PropagationEngine.round_observations` reads);
    ``graph`` is the directed CSR built from them.  A Perigee round rewires
    a fixed share of the overlay (every node drops and redials peers), so
    the memo is rebuilt whole whenever the version moves and serves only
    the repeat reads within one topology version.
    """

    network_ref: "weakref.ref[P2PNetwork]"
    version: int
    pairs: np.ndarray
    delta: np.ndarray
    graph: csr_matrix


@dataclass(frozen=True)
class PropagationResult:
    """Result of propagating one or more blocks over a fixed topology.

    Attributes
    ----------
    sources:
        Miner node id for each propagated block, shape ``(num_blocks,)``.
    arrival_times:
        ``arrival_times[b, v]`` is the time (ms, relative to the block being
        mined) at which node ``v`` first receives block ``b``.  ``inf`` if the
        block never reaches ``v`` (disconnected topology).
    """

    sources: np.ndarray
    arrival_times: np.ndarray

    @property
    def num_blocks(self) -> int:
        return int(self.arrival_times.shape[0])

    @property
    def num_nodes(self) -> int:
        return int(self.arrival_times.shape[1])

    def reached_fraction(self, block_index: int) -> float:
        """Fraction of nodes (not hash power) reached by the given block."""
        return float(np.isfinite(self.arrival_times[block_index]).mean())


class PropagationEngine:
    """Computes block arrival times and per-neighbor forwarding observations.

    Parameters
    ----------
    latency:
        Link latency model providing ``δ(u, v)``.
    validation_delays_ms:
        Per-node validation delays ``Δ_v`` in milliseconds.
    """

    def __init__(
        self,
        latency: LatencyModel,
        validation_delays_ms: np.ndarray,
    ) -> None:
        validation = np.asarray(validation_delays_ms, dtype=float)
        if validation.ndim != 1:
            raise ValueError("validation_delays_ms must be a 1-D array")
        if validation.shape[0] != latency.num_nodes:
            raise ValueError(
                "validation_delays_ms length must match the latency model size"
            )
        if np.any(validation < 0):
            raise ValueError("validation delays must be non-negative")
        # The engine consumes the latency model exclusively through per-edge
        # ``pairwise`` gathers (E values per round), so on-demand backends
        # never materialise — and dense backends never copy — an N x N
        # matrix on its account.
        self._latency = latency
        self._validation = validation
        self._num_nodes = latency.num_nodes
        self._memo: _GraphMemo | None = None

    @property
    def num_nodes(self) -> int:
        return self._num_nodes

    @property
    def latency_model(self) -> LatencyModel:
        return self._latency

    # ------------------------------------------------------------------ #
    # Graph construction
    # ------------------------------------------------------------------ #
    def _current_memo(self, network: P2PNetwork) -> _GraphMemo | None:
        """The memo if it holds ``network`` at its current topology version."""
        memo = self._memo
        if (
            memo is not None
            and memo.network_ref() is network
            and memo.version == network.topology_version
        ):
            return memo
        return None

    def _edge_arrays(self, network: P2PNetwork) -> tuple[np.ndarray, np.ndarray]:
        """Canonical sorted edge array ``(E, 2)`` and per-edge latencies.

        Read from the memo when it is current (no counter moves), else
        gathered afresh.  Callers must not mutate the returned arrays.
        """
        memo = self._current_memo(network)
        if memo is not None:
            return memo.pairs, memo.delta
        pairs = network.to_numpy_edges()
        if not pairs.shape[0]:
            return pairs, np.zeros(0, dtype=float)
        u, v = pairs.T
        return pairs, np.asarray(self._latency.pairwise(u, v), dtype=float)

    def _csr_from_pairs(self, pairs: np.ndarray, delta: np.ndarray) -> csr_matrix:
        """Directed sparse graph with weight ``Δ_u + δ(u, v)`` on edge u->v.

        Every undirected communication edge yields two directed entries.  The
        miner's validation delay is *included* by these weights and later
        subtracted from all distances, which is equivalent to not charging the
        miner for validating its own block.
        """
        n = self._num_nodes
        if pairs.shape[0] == 0:
            return csr_matrix((n, n), dtype=float)
        u = pairs[:, 0]
        v = pairs[:, 1]
        rows = np.concatenate([u, v])
        cols = np.concatenate([v, u])
        weights = np.concatenate(
            [self._validation[u] + delta, self._validation[v] + delta]
        )
        return csr_matrix((weights, (rows, cols)), shape=(n, n))

    # ------------------------------------------------------------------ #
    # Propagation
    # ------------------------------------------------------------------ #
    def propagate(
        self, network: P2PNetwork, sources: np.ndarray | list[int]
    ) -> PropagationResult:
        """Propagate one block per entry of ``sources`` over ``network``.

        Returns arrival times relative to each block's mining instant.
        """
        sources = np.asarray(sources, dtype=int)
        if sources.ndim != 1:
            raise ValueError("sources must be a 1-D array of node ids")
        if sources.size == 0:
            return PropagationResult(
                sources=sources,
                arrival_times=np.zeros((0, self._num_nodes), dtype=float),
            )
        if np.any(sources < 0) or np.any(sources >= self._num_nodes):
            raise ValueError("source ids out of range")
        if network.num_nodes != self._num_nodes:
            raise ValueError("network size must match the latency model")
        get_recorder().incr("engine.propagate_blocks", int(sources.size))
        # Two blocks mined by one node share a shortest-path tree: solve each
        # distinct miner once and expand the rows over the blocks.
        unique_sources, inverse = np.unique(sources, return_inverse=True)
        arrival = self.arrival_times_from(network, unique_sources)[inverse]
        return PropagationResult(sources=sources.copy(), arrival_times=arrival)

    def forwarding_times(
        self,
        network: P2PNetwork,
        result: PropagationResult,
        block_index: int,
    ) -> dict[int, dict[int, float]]:
        """Per-neighbor forwarding times for one propagated block.

        Returns a nested mapping ``{v: {u: t}}`` where ``t`` is the time at
        which neighbor ``u`` would deliver the block to ``v`` — i.e. the
        timestamp ``t^b_{u,v}`` a node records in its observation set.  Every
        communication neighbor ``u`` of ``v`` appears, even when ``v`` first
        heard of the block from a different neighbor.
        """
        if not 0 <= block_index < result.num_blocks:
            raise IndexError("block_index out of range")
        arrival = result.arrival_times[block_index]
        source = int(result.sources[block_index])
        edges = network.to_numpy_edges()
        observations: dict[int, dict[int, float]] = {
            v: {} for v in range(self._num_nodes)
        }
        if edges.shape[0] == 0:
            return observations
        for u, v in edges:
            observations[v][u] = self._forward_time(arrival, source, int(u), int(v))
            observations[u][v] = self._forward_time(arrival, source, int(v), int(u))
        return observations

    def round_observations(
        self,
        network: P2PNetwork,
        result: PropagationResult,
        block_ids: np.ndarray | list[int] | None = None,
    ) -> RoundObservations:
        """Columnar observation structure for a whole round.

        This is what the simulator hands protocols.  The directed edges are
        put in ``(receiver, sender)`` order first, so the ``(2E, B)``
        forwarding-time matrix is allocated once, already receiver-sorted:
        one gather of each sender's arrival row, then the sender's
        validation delay (skipped where it mined the block) and the link
        latency added in place.  ``block_ids`` defaults to
        ``0..num_blocks-1`` (callers with globally numbered blocks pass
        their own ids).
        """
        if block_ids is None:
            block_ids = np.arange(result.num_blocks)
        block_ids = np.asarray(block_ids, dtype=np.int64)
        if block_ids.size != result.num_blocks:
            raise ValueError("block_ids must hold one id per propagated block")
        pairs, delta = self._edge_arrays(network)
        u, v = pairs.T
        senders = np.concatenate([u, v])
        receivers = np.concatenate([v, u])
        order = np.lexsort((senders, receivers))
        senders = senders[order]
        receivers = receivers[order]
        edge_delta = np.concatenate([delta, delta])[order]
        arrival_by_node = np.ascontiguousarray(result.arrival_times.T)  # (N, B)
        times = arrival_by_node[senders]  # (2E, B), the round's one big array
        np.add(
            times,
            self._validation[senders][:, None],
            out=times,
            where=senders[:, None] != result.sources[None, :],
        )
        times += edge_delta[:, None]
        indptr = np.searchsorted(receivers, np.arange(self._num_nodes + 1))
        return RoundObservations(
            self._num_nodes, block_ids, senders, receivers, times, indptr
        )

    def _forward_time(
        self, arrival: np.ndarray, source: int, sender: int, receiver: int
    ) -> float:
        validation = 0.0 if sender == source else float(self._validation[sender])
        return float(
            arrival[sender]
            + validation
            + self._latency.latency(sender, receiver)
        )

    # ------------------------------------------------------------------ #
    # All-pairs / batched helpers used by metrics and the delay evaluator
    # ------------------------------------------------------------------ #
    def weight_graph(self, network: P2PNetwork) -> csr_matrix:
        """Directed CSR weight graph for ``network`` (``Δ_u + δ(u, v)``).

        Public wrapper so batched consumers (the delay evaluator, security
        analyses) can build the graph once and reuse it across many Dijkstra
        passes.  The graph is memoised per topology version, so ``propagate``,
        ``round_observations`` and evaluation share one build per round; the
        returned CSR is the engine's memo — treat it as immutable.
        """
        if network.num_nodes != self._num_nodes:
            raise ValueError("network size must match the latency model")
        recorder = get_recorder()
        memo = self._current_memo(network)
        if memo is not None:
            recorder.incr("engine.graph_cache.hit")
            return memo.graph
        recorder.incr("engine.graph_cache.miss")
        version = network.topology_version
        pairs, delta = self._edge_arrays(network)
        self._memo = _GraphMemo(
            weakref.ref(network),
            version,
            pairs,
            delta,
            self._csr_from_pairs(pairs, delta),
        )
        return self._memo.graph

    def arrival_times_from(
        self,
        network: P2PNetwork,
        sources: np.ndarray | list[int],
        graph: csr_matrix | None = None,
    ) -> np.ndarray:
        """Arrival-time rows for the given block sources, shape ``(S, N)``.

        ``out[i, v]`` is the time for a block mined by ``sources[i]`` to
        reach ``v``.  Passing a precomputed ``graph`` (from
        :meth:`weight_graph`) skips rebuilding the CSR structure, which is
        what makes chunked evaluation over many source batches cheap.
        """
        sources = np.asarray(sources, dtype=int)
        if sources.ndim != 1:
            raise ValueError("sources must be a 1-D array of node ids")
        if sources.size == 0:
            return np.zeros((0, self._num_nodes), dtype=float)
        if np.any(sources < 0) or np.any(sources >= self._num_nodes):
            raise ValueError("source ids out of range")
        get_recorder().incr("engine.dijkstra_sources", int(sources.size))
        if graph is None:
            graph = self.weight_graph(network)
        distances = np.atleast_2d(dijkstra(graph, directed=True, indices=sources))
        # Remove the miner's own validation delay which the directed weights
        # charged on the first hop out of each source.
        distances -= self._validation[sources][:, None]
        distances[np.arange(sources.size), sources] = 0.0
        return distances

    def all_sources_arrival_times(self, network: P2PNetwork) -> np.ndarray:
        """Arrival-time matrix with every node as a block source.

        ``out[s, v]`` is the time for a block mined by ``s`` to reach ``v``.
        Used by the delay metrics of Section 2.2, which evaluate every node as
        a potential miner.  This materialises the full ``N x N`` matrix; at
        large N prefer :class:`repro.metrics.evaluator.DelayEvaluator`,
        which chunks or samples the sources instead.
        """
        return self.arrival_times_from(
            network, np.arange(self._num_nodes, dtype=int)
        )
