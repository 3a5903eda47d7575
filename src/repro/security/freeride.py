"""Free-riding analysis: what happens to nodes that stop relaying blocks.

The paper argues (Section 1) that Perigee is incentive compatible: "if a node
deviates from protocol (e.g., stops relaying blocks ...), then its neighbors
will penalize the node by disconnecting from it in the future.  Consequently,
the deviant node will lose out on receiving blocks in a timely manner."

This module simulates exactly that deviation.  Free-riding nodes receive
blocks but never forward them.  Under the random (static) topology nothing
changes for the free-rider — its neighbors keep serving it.  Under Perigee the
free-rider never appears in its neighbors' observation sets, scores infinitely
badly, gets disconnected, and — because the overall overlay keeps optimising
around it while its own incoming connectivity withers — ends up with a worse
delay than a compliant node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix

from repro.config import SimulationConfig, default_config
from repro.core.network import P2PNetwork
from repro.core.observations import NEVER
from repro.core.propagation import PropagationEngine
from repro.core.simulator import Simulator
from repro.datasets.bitnodes import NodePopulation, generate_population
from repro.latency.base import LatencyModel
from repro.latency.factory import build_latency_model
from repro.protocols.base import NeighborSelectionProtocol
from repro.protocols.perigee.subset import PerigeeSubsetProtocol
from repro.protocols.random_policy import RandomProtocol


def arrival_times_with_free_riders(
    latency: LatencyModel,
    validation_delays_ms: np.ndarray,
    network: P2PNetwork,
    sources: np.ndarray | list[int],
    free_riders: set[int] | frozenset[int],
) -> np.ndarray:
    """Arrival times when ``free_riders`` receive but never relay blocks.

    The directed relay graph simply omits every edge *out of* a free-riding
    node (unless that node is the block's own miner — a miner that withholds
    its block gains nothing, so we keep the conventional assumption that it
    announces it).  Returns an ``(num_blocks, num_nodes)`` arrival matrix.
    """
    sources = np.asarray(sources, dtype=int)
    riders = np.array(sorted({int(node) for node in free_riders}), dtype=np.int64)
    n = latency.num_nodes
    validation = np.asarray(validation_delays_ms, dtype=float)
    engine = PropagationEngine(latency, validation)
    edges = network.to_numpy_edges()
    arrivals = np.full((sources.size, n), np.inf, dtype=float)
    if edges.shape[0] == 0:
        arrivals[np.arange(sources.size), sources] = 0.0
        return arrivals
    # One per-edge latency gather for the whole call (never the N x N
    # matrix), and one shared honest-edge graph reused across every source:
    # only sources that free-ride need a per-source graph, because a miner
    # announces its own block even when it otherwise never relays.  The
    # Dijkstra pass itself (and the miner-validation correction) is the
    # engine's, via ``arrival_times_from(graph=...)`` — only the edge
    # censoring is local.
    u = edges[:, 0].astype(np.int64)
    v = edges[:, 1].astype(np.int64)
    delta = latency.pairwise(u, v)
    rows = np.concatenate([u, v])
    cols = np.concatenate([v, u])
    data = np.concatenate([validation[u] + delta, validation[v] + delta])
    honest = ~np.isin(rows, riders)
    base_graph = csr_matrix(
        (data[honest], (rows[honest], cols[honest])), shape=(n, n)
    )

    unique_sources = np.unique(sources)
    rider_sources = unique_sources[np.isin(unique_sources, riders)]
    honest_sources = unique_sources[~np.isin(unique_sources, riders)]
    by_source: dict[int, np.ndarray] = {}
    if honest_sources.size:
        batch = engine.arrival_times_from(
            network, honest_sources, graph=base_graph
        )
        for row, source in zip(batch, honest_sources):
            by_source[int(source)] = row
    for source in rider_sources:
        keep = honest | (rows == source)
        graph = csr_matrix((data[keep], (rows[keep], cols[keep])), shape=(n, n))
        by_source[int(source)] = engine.arrival_times_from(
            network, np.array([source]), graph=graph
        )[0]
    for index, source in enumerate(sources):
        arrivals[index] = by_source[int(source)]
    return arrivals


class _FreeRidingAwarePerigee(PerigeeSubsetProtocol):
    """Perigee-Subset whose observations reflect that free-riders never deliver.

    The simulator's default observation collection assumes every node relays;
    this subclass intercepts the per-round update and replaces every delivery
    timestamp attributed to a free-riding neighbor with "never delivered",
    which is what an honest node would actually observe.
    """

    name = "perigee-subset-freeride-aware"

    def __init__(self, free_riders: set[int], **kwargs) -> None:
        super().__init__(**kwargs)
        self._free_riders = frozenset(int(node) for node in free_riders)

    def update(self, context, network, observations, rng) -> None:
        # Blank every row whose sender free-rides, in one vectorised pass
        # over the columnar round data.
        riders = np.fromiter(
            sorted(self._free_riders), dtype=np.int64, count=len(self._free_riders)
        )
        times = observations.times.copy()
        times[np.isin(observations.senders, riders)] = NEVER
        super().update(context, network, observations.with_times(times), rng)


@dataclass(frozen=True)
class FreeRideOutcome:
    """Delays experienced by free-riders vs compliant nodes under one protocol.

    All values are median per-source delays (ms) for a block mined by nodes of
    that class to reach the hash power target — i.e. how quickly the rest of
    the network would *hear from* them; plus the reverse direction (how
    quickly they receive a typical block), which is the quantity free-riding
    actually hurts.
    """

    protocol: str
    free_rider_receive_ms: float
    compliant_receive_ms: float
    free_rider_count: int

    @property
    def penalty(self) -> float:
        """Relative extra delay a free-rider suffers compared to a compliant node."""
        if self.compliant_receive_ms <= 0:
            return float("nan")
        return self.free_rider_receive_ms / self.compliant_receive_ms - 1.0


def _receive_delay_by_class(
    latency: LatencyModel,
    population: NodePopulation,
    network: P2PNetwork,
    free_riders: set[int],
    config: SimulationConfig,
    num_probe_blocks: int = 80,
    seed: int = 0,
) -> tuple[float, float]:
    """Median time for free-riders / compliant nodes to *receive* blocks.

    Probe blocks are mined by hash-power-weighted random sources (free-riders
    excluded as miners so the comparison is about receiving).  Free-riding is
    honoured during propagation: deviant nodes never relay.
    """
    rng = np.random.default_rng(seed)
    candidates = np.array(
        [node for node in range(config.num_nodes) if node not in free_riders]
    )
    weights = population.hash_power[candidates]
    weights = weights / weights.sum()
    sources = rng.choice(candidates, size=num_probe_blocks, p=weights)
    arrivals = arrival_times_with_free_riders(
        latency, population.validation_delays, network, sources, free_riders
    )
    rider_ids = np.array(sorted(free_riders), dtype=int)
    compliant_ids = np.array(
        [node for node in range(config.num_nodes) if node not in free_riders],
        dtype=int,
    )
    rider_delays = arrivals[:, rider_ids]
    compliant_delays = arrivals[:, compliant_ids]
    return (
        float(np.median(rider_delays[np.isfinite(rider_delays)])),
        float(np.median(compliant_delays[np.isfinite(compliant_delays)])),
    )


def run_free_riding_experiment(
    num_nodes: int = 150,
    num_free_riders: int = 10,
    rounds: int = 12,
    blocks_per_round: int = 40,
    seed: int = 0,
) -> dict[str, FreeRideOutcome]:
    """Compare the free-rider penalty under the random topology and Perigee.

    Returns a mapping ``protocol name -> FreeRideOutcome``.  The paper's
    incentive argument corresponds to the Perigee outcome showing a clearly
    larger penalty than the random outcome.
    """
    if num_free_riders < 1 or num_free_riders >= num_nodes:
        raise ValueError("num_free_riders must be in [1, num_nodes)")
    config = default_config(
        num_nodes=num_nodes,
        rounds=rounds,
        blocks_per_round=blocks_per_round,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    population = generate_population(config, rng)
    latency = build_latency_model(config, population, rng)
    free_riders = set(
        int(node) for node in rng.choice(num_nodes, size=num_free_riders, replace=False)
    )

    outcomes: dict[str, FreeRideOutcome] = {}
    protocols: list[tuple[str, NeighborSelectionProtocol]] = [
        ("random", RandomProtocol()),
        ("perigee-subset", _FreeRidingAwarePerigee(free_riders)),
    ]
    for name, protocol in protocols:
        simulator = Simulator(
            config,
            protocol,
            population=population,
            latency=latency,
            rng=np.random.default_rng(seed + 1),
        )
        if protocol.is_adaptive:
            simulator.run(rounds=rounds)
        rider_ms, compliant_ms = _receive_delay_by_class(
            latency, population, simulator.network, free_riders, config, seed=seed + 2
        )
        outcomes[name] = FreeRideOutcome(
            protocol=name,
            free_rider_receive_ms=rider_ms,
            compliant_receive_ms=compliant_ms,
            free_rider_count=num_free_riders,
        )
    return outcomes
