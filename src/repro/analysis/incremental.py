"""Incremental deployment: what happens when only some nodes run Perigee.

Section 1.2 of the paper lists incremental deployability among Perigee's
advantages: "peers following Perigee would see improvements in how quickly
they can send or receive blocks, compared to those that do not follow
Perigee."  This module makes that claim measurable:

* :class:`MixedDeploymentProtocol` wraps any Perigee variant and applies its
  per-round neighbor update only to a designated set of *adopter* nodes; every
  other node keeps the random topology it started with (Bitcoin's default
  behaviour).
* :func:`run_incremental_deployment` sweeps the adoption fraction and reports
  the delay experienced by adopters and non-adopters separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.config import SimulationConfig, default_config
from repro.core.observations import ObservationSet
from repro.core.simulator import Simulator
from repro.datasets.bitnodes import generate_population
from repro.latency.geo import GeographicLatencyModel
from repro.metrics.evaluator import DEFAULT_EVALUATOR
from repro.protocols.base import ProtocolContext
from repro.protocols.perigee.base import PerigeeBase
from repro.protocols.perigee.subset import PerigeeSubsetProtocol


class MixedDeploymentProtocol(PerigeeBase):
    """Apply a Perigee variant's updates only to a subset of adopter nodes.

    Non-adopters never rewire: they behave exactly like random-topology
    Bitcoin nodes.  Adopters run the wrapped variant's scoring and retention
    rule (Algorithm 1) every round.  The round template itself is inherited
    from :class:`PerigeeBase` — including its array-native observation path —
    with :meth:`updates_node` restricting it to adopters and every policy
    hook delegated to the wrapped variant.

    Parameters
    ----------
    adopters:
        Node ids that follow Perigee.
    inner:
        The Perigee variant adopters run (defaults to Perigee-Subset).
    """

    name = "perigee-mixed"

    def __init__(
        self,
        adopters: set[int] | frozenset[int],
        inner: PerigeeBase | None = None,
    ) -> None:
        inner = inner if inner is not None else PerigeeSubsetProtocol()
        super().__init__(
            exploration_peers=inner._exploration_peers,
            percentile=inner.percentile,
        )
        self._adopters = frozenset(int(node) for node in adopters)
        self._inner = inner

    @property
    def adopters(self) -> frozenset[int]:
        return self._adopters

    @property
    def inner(self) -> PerigeeBase:
        return self._inner

    def reset(self) -> None:
        self._inner.reset()

    def exploration_budget(self, context: ProtocolContext) -> int:
        """The wrapped variant decides the exploration budget (UCB uses 0)."""
        return self._inner.exploration_budget(context)

    def updates_node(self, node_id: int) -> bool:
        return node_id in self._adopters

    def on_neighbors_dropped(self, node_id: int, dropped: set[int]) -> None:
        self._inner.on_neighbors_dropped(node_id, dropped)

    @property
    def scores_in_batch(self) -> bool:
        """Adopters are scored in one pass exactly when the inner variant is."""
        return self._inner.scores_in_batch

    def select_retained_batch(
        self,
        node_ids: Sequence[int],
        neighbors: Sequence[np.ndarray],
        times: Sequence[np.ndarray],
        retain_budget: int,
    ) -> list[set[int]]:
        return self._inner.select_retained_batch(
            node_ids, neighbors, times, retain_budget
        )

    def select_retained_block(
        self,
        node_id: int,
        neighbors: np.ndarray,
        times: np.ndarray,
        retain_budget: int,
        rng: np.random.Generator,
    ) -> set[int]:
        return self._inner.select_retained_block(
            node_id=node_id,
            neighbors=neighbors,
            times=times,
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
        """Delegate to the wrapped variant (used if callers bypass ``update``)."""
        return self._inner.select_retained(
            node_id=node_id,
            outgoing=outgoing,
            observations=observations,
            retain_budget=retain_budget,
            rng=rng,
        )

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["adopters"] = len(self._adopters)
        info["inner"] = self._inner.name
        return info


@dataclass(frozen=True)
class IncrementalDeploymentResult:
    """Delays seen by adopters and non-adopters at one adoption level.

    All delays are medians of the per-source time to reach the configured
    hash power target, in milliseconds.
    """

    adoption_fraction: float
    adopter_delay_ms: float
    non_adopter_delay_ms: float
    overall_delay_ms: float
    baseline_delay_ms: float

    @property
    def adopter_improvement(self) -> float:
        """Relative improvement adopters see over the all-random baseline."""
        return 1.0 - self.adopter_delay_ms / self.baseline_delay_ms

    @property
    def non_adopter_improvement(self) -> float:
        """Relative improvement non-adopters see over the all-random baseline."""
        return 1.0 - self.non_adopter_delay_ms / self.baseline_delay_ms


def _median(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    return float(np.median(finite)) if finite.size else float("inf")


def run_incremental_deployment(
    adoption_fractions: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0),
    num_nodes: int = 200,
    rounds: int = 15,
    blocks_per_round: int = 40,
    seed: int = 0,
    config: SimulationConfig | None = None,
) -> list[IncrementalDeploymentResult]:
    """Sweep the fraction of nodes running Perigee.

    Every adoption level runs on the same population and latency draw, and is
    compared against the all-random baseline (adoption 0).  Returns one
    :class:`IncrementalDeploymentResult` per requested fraction.
    """
    if not adoption_fractions:
        raise ValueError("adoption_fractions must be non-empty")
    for fraction in adoption_fractions:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("adoption fractions must be in (0, 1]")
    if config is None:
        config = default_config(
            num_nodes=num_nodes,
            rounds=rounds,
            blocks_per_round=blocks_per_round,
            seed=seed,
        )
    rng = np.random.default_rng(config.seed)
    population = generate_population(config, rng)
    latency = GeographicLatencyModel(population.nodes, rng)

    def reach_evaluation(simulator: Simulator):
        return DEFAULT_EVALUATOR.evaluate(
            simulator.engine,
            simulator.network,
            population.hash_power,
            target_fractions=(config.hash_power_target,),
        )

    # All-random baseline: nobody adopts.
    from repro.protocols.random_policy import RandomProtocol

    baseline_simulator = Simulator(
        config,
        RandomProtocol(),
        population=population,
        latency=latency,
        rng=np.random.default_rng(config.seed + 1),
    )
    baseline_delay = reach_evaluation(baseline_simulator).median_ms(
        config.hash_power_target
    )

    results = []
    for fraction in adoption_fractions:
        adopter_count = max(1, int(round(config.num_nodes * fraction)))
        adopters = set(
            int(node)
            for node in np.random.default_rng(config.seed + 2).choice(
                config.num_nodes, size=adopter_count, replace=False
            )
        )
        protocol = MixedDeploymentProtocol(adopters)
        simulator = Simulator(
            config,
            protocol,
            population=population,
            latency=latency,
            rng=np.random.default_rng(config.seed + 3),
        )
        simulator.run(rounds=config.rounds)
        evaluation = reach_evaluation(simulator)
        reach = evaluation.reach(config.hash_power_target)
        # Per-class medians are taken over the *evaluated* sources (all
        # nodes in exact mode, the miner-weighted sample at very large N),
        # so the split works unchanged under both evaluation modes.
        adopter_ids = np.array(sorted(adopters), dtype=int)
        adopter_mask = np.isin(evaluation.source_ids, adopter_ids)
        results.append(
            IncrementalDeploymentResult(
                adoption_fraction=fraction,
                adopter_delay_ms=_median(reach[adopter_mask]),
                non_adopter_delay_ms=(
                    _median(reach[~adopter_mask])
                    if np.any(~adopter_mask)
                    else float("nan")
                ),
                overall_delay_ms=_median(reach),
                baseline_delay_ms=baseline_delay,
            )
        )
    return results
