"""Perigee under node churn with limited peer knowledge.

Section 6 of the paper lists "analyzing the performance under node churn,
with limited peer addresses known at each node (that are dynamically updated
as part of a peer-discovery protocol)" as an open direction.  This module
implements the experiment:

* every round, a fraction of the currently online nodes goes offline (their
  TCP connections are torn down) and a matching number of offline nodes comes
  back online with fresh random connections;
* nodes only know the addresses in their own bounded address book
  (:class:`repro.core.addrman.AddressManager`), refreshed by one-hop gossip,
  and explore exclusively among addresses they know and believe to be online;
* Perigee-Subset's scoring runs unchanged on the observations of each round.

The comparison is against the random topology under exactly the same churn
process; the result records the delay penalty churn inflicts on each protocol
and whether Perigee's advantage survives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import SimulationConfig, default_config
from repro.core.addrman import AddressManager
from repro.core.network import P2PNetwork
from repro.core.observations import RoundObservations
from repro.core.propagation import PropagationEngine
from repro.datasets.bitnodes import NodePopulation, generate_population
from repro.latency.geo import GeographicLatencyModel
from repro.metrics.evaluator import DEFAULT_EVALUATOR
from repro.protocols.perigee.subset import PerigeeSubsetProtocol


@dataclass(frozen=True)
class ChurnExperimentResult:
    """Outcome of the churn experiment for one protocol.

    Attributes
    ----------
    protocol:
        ``"random"`` or ``"perigee-subset"``.
    median_delay_ms:
        Median (over online sources) delay to reach the hash power target
        among online nodes, measured on the final topology.
    median_delay_no_churn_ms:
        The same protocol's delay in an otherwise identical run without
        churn, for reference.
    online_fraction:
        Fraction of nodes online at measurement time.
    address_coverage:
        Average fraction of the network each node's address book covers at
        the end of the run (1.0 means global knowledge).
    """

    protocol: str
    median_delay_ms: float
    median_delay_no_churn_ms: float
    online_fraction: float
    address_coverage: float

    @property
    def churn_penalty(self) -> float:
        """Relative slowdown caused by churn for this protocol."""
        if self.median_delay_no_churn_ms <= 0:
            return float("nan")
        return self.median_delay_ms / self.median_delay_no_churn_ms - 1.0


class _ChurnDriver:
    """Round loop shared by the random and Perigee arms of the experiment."""

    def __init__(
        self,
        config: SimulationConfig,
        population: NodePopulation,
        latency,
        churn_rate: float,
        address_capacity: int,
        seed: int,
    ) -> None:
        self.config = config
        self.population = population
        self.engine = PropagationEngine(latency, population.validation_delays)
        self.churn_rate = churn_rate
        self.rng = np.random.default_rng(seed)
        self.network = P2PNetwork(
            config.num_nodes, config.out_degree, config.max_incoming
        )
        self.online = np.ones(config.num_nodes, dtype=bool)
        self.addrman = AddressManager(
            config.num_nodes, capacity=address_capacity, rng=self.rng
        )
        order = self.rng.permutation(config.num_nodes)
        for node_id in order:
            self._fill_from_addrman(int(node_id))

    # ------------------------------------------------------------------ #
    def _fill_from_addrman(self, node_id: int) -> None:
        """Fill free outgoing slots with known, online, not-yet-connected peers."""
        free = self.network.outgoing_slots_free(node_id)
        if free <= 0:
            return
        exclude = set(self.network.neighbors(node_id))
        exclude.add(node_id)
        candidates = [
            peer
            for peer in self.addrman.sample_candidates(
                node_id, self.rng, count=4 * free + 8, exclude=exclude
            )
            if self.online[peer]
        ]
        for peer in candidates:
            if self.network.outgoing_slots_free(node_id) <= 0:
                break
            self.network.connect(node_id, peer)

    def apply_churn(self) -> None:
        """Take a fraction of online nodes offline and bring offline nodes back."""
        online_ids = np.where(self.online)[0]
        offline_ids = np.where(~self.online)[0]
        departures = int(round(self.churn_rate * online_ids.size))
        departures = min(departures, max(0, online_ids.size - 2))
        if departures > 0:
            leaving = self.rng.choice(online_ids, size=departures, replace=False)
            for node_id in leaving:
                node_id = int(node_id)
                self.online[node_id] = False
                self.network.purge_node(node_id)
                self.addrman.remove_everywhere(node_id)
        arrivals = min(departures, offline_ids.size)
        if arrivals > 0:
            joining = self.rng.choice(offline_ids, size=arrivals, replace=False)
            for node_id in joining:
                node_id = int(node_id)
                self.online[node_id] = True
                # A (re)joining node bootstraps a fresh address book entry set
                # from a few random online peers, as a bootstrap server would.
                online_now = np.where(self.online)[0]
                seeds = self.rng.choice(
                    online_now, size=min(8, online_now.size), replace=False
                )
                for seed_peer in seeds:
                    if int(seed_peer) != node_id:
                        self.addrman.add_address(node_id, int(seed_peer), self.rng)
                self._fill_from_addrman(node_id)
        # Online nodes whose neighbors left refill their outgoing slots.
        for node_id in np.where(self.online)[0]:
            self._fill_from_addrman(int(node_id))

    def mine_sources(self, count: int) -> np.ndarray:
        """Blocks are mined by online nodes proportionally to hash power."""
        online_ids = np.where(self.online)[0]
        weights = self.population.hash_power[online_ids]
        weights = weights / weights.sum()
        return self.rng.choice(online_ids, size=count, p=weights)

    def collect_observations(self, sources: np.ndarray) -> RoundObservations:
        result = self.engine.propagate(self.network, sources)
        return self.engine.round_observations(self.network, result)

    def evaluate(self) -> float:
        """Median delay (over online sources) to reach the target among online nodes."""
        online_ids = np.where(self.online)[0]
        # The evaluator restricts sources *and* receivers to the online
        # nodes and renormalises hash power over them — the same submatrix
        # evaluation as before, without materialising all N sources at once.
        evaluation = DEFAULT_EVALUATOR.evaluate(
            self.engine,
            self.network,
            self.population.hash_power,
            target_fractions=(self.config.hash_power_target,),
            include=online_ids,
        )
        return evaluation.median_ms(self.config.hash_power_target)


def _run_arm(
    adaptive: bool,
    config: SimulationConfig,
    population: NodePopulation,
    latency,
    churn_rate: float,
    address_capacity: int,
    seed: int,
) -> tuple[float, float]:
    """Run one protocol arm; returns (final delay, address coverage)."""
    driver = _ChurnDriver(
        config, population, latency, churn_rate, address_capacity, seed
    )
    protocol = PerigeeSubsetProtocol()
    for round_index in range(config.rounds):
        driver.apply_churn()
        driver.addrman.gossip_round(driver.network, driver.rng)
        if adaptive:
            sources = driver.mine_sources(config.blocks_per_round)
            observations = driver.collect_observations(sources)
            # Algorithm 1 for every online node, with exploration drawn from
            # the node's own address book (online peers only).
            for node_id in np.where(driver.online)[0]:
                node_id = int(node_id)
                outgoing = driver.network.outgoing_neighbors(node_id)
                if not outgoing:
                    driver._fill_from_addrman(node_id)
                    continue
                neighbors = np.fromiter(
                    sorted(outgoing), dtype=np.int64, count=len(outgoing)
                )
                times = observations.normalized_rows(node_id, neighbors)
                retain_budget = max(
                    0, config.out_degree - config.exploration_peers
                )
                retained = protocol.select_retained_block(
                    node_id=node_id,
                    neighbors=neighbors,
                    times=times,
                    retain_budget=retain_budget,
                    rng=driver.rng,
                )
                retained = {peer for peer in retained if peer in outgoing}
                for peer in set(outgoing) - retained:
                    driver.network.disconnect(node_id, peer)
                driver._fill_from_addrman(node_id)
        del round_index
    return driver.evaluate(), driver.addrman.coverage()


def run_churn_experiment(
    num_nodes: int = 150,
    rounds: int = 12,
    blocks_per_round: int = 40,
    churn_rate: float = 0.05,
    address_capacity: int = 48,
    seed: int = 0,
) -> dict[str, ChurnExperimentResult]:
    """Compare random vs Perigee-Subset under churn and limited peer knowledge.

    ``churn_rate`` is the fraction of online nodes replaced every round.
    Returns a mapping ``protocol -> ChurnExperimentResult``; the no-churn
    reference for each protocol is computed with the same driver and
    ``churn_rate = 0``.
    """
    if not 0.0 <= churn_rate < 0.5:
        raise ValueError("churn_rate must be within [0, 0.5)")
    config = default_config(
        num_nodes=num_nodes,
        rounds=rounds,
        blocks_per_round=blocks_per_round,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    population = generate_population(config, rng)
    latency = GeographicLatencyModel(population.nodes, rng)

    results: dict[str, ChurnExperimentResult] = {}
    for name, adaptive in (("random", False), ("perigee-subset", True)):
        churned_delay, coverage = _run_arm(
            adaptive, config, population, latency, churn_rate, address_capacity,
            seed + 1,
        )
        stable_delay, _ = _run_arm(
            adaptive, config, population, latency, 0.0, address_capacity, seed + 1
        )
        results[name] = ChurnExperimentResult(
            protocol=name,
            median_delay_ms=churned_delay,
            median_delay_no_churn_ms=stable_delay,
            online_fraction=1.0,
            address_coverage=coverage,
        )
    return results
