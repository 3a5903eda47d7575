"""Eclipse-attack exposure analysis.

Section 6 of the paper: "one way to launch an Eclipse attack is for an
adversary to provide blocks earlier than other nodes, thus gaining a peer's
trust and dominating its neighborhood.  The presence of random neighbors in
Perigee provides some mitigation against this attack."

This module quantifies that exposure.  A set of adversarial nodes is given a
*head start*: whenever they forward a block to a neighbor, the neighbor
observes the delivery ``head_start_ms`` earlier than physics would allow
(e.g. the adversary runs a private relay backbone or pre-announces blocks).
Honest Perigee nodes therefore tend to retain adversarial neighbors.  The
exposure metric is the fraction of honest nodes' *scored* (non-exploration)
outgoing slots occupied by adversaries after a number of rounds; the
mitigation offered by exploration shows up as exposure never reaching 100%
and as re-randomised slots every round.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import default_config
from repro.core.simulator import Simulator
from repro.datasets.bitnodes import generate_population
from repro.latency.factory import build_latency_model
from repro.protocols.perigee.subset import PerigeeSubsetProtocol


class _HeadStartPerigee(PerigeeSubsetProtocol):
    """Perigee-Subset under adversarial early delivery.

    Deliveries from adversarial neighbors appear ``head_start_ms`` earlier in
    every node's observation set (clamped at zero).
    """

    name = "perigee-subset-under-eclipse"

    def __init__(self, adversaries: set[int], head_start_ms: float, **kwargs) -> None:
        super().__init__(**kwargs)
        if head_start_ms < 0:
            raise ValueError("head_start_ms must be non-negative")
        self._adversaries = frozenset(int(node) for node in adversaries)
        self._head_start_ms = head_start_ms

    def update(self, context, network, observations, rng) -> None:
        # Shift every row whose sender is adversarial, in one vectorised
        # pass over the columnar round data.
        adversaries = np.fromiter(
            sorted(self._adversaries), dtype=np.int64, count=len(self._adversaries)
        )
        boosted_rows = np.isin(observations.senders, adversaries)
        times = observations.times.copy()
        times[boosted_rows] = np.maximum(
            0.0, times[boosted_rows] - self._head_start_ms
        )
        super().update(context, network, observations.with_times(times), rng)


@dataclass(frozen=True)
class EclipseExposure:
    """Exposure of honest nodes to adversarial neighbors after the attack.

    Attributes
    ----------
    head_start_ms:
        The adversary's delivery head start.
    adversary_fraction:
        Fraction of nodes controlled by the adversary.
    outgoing_capture:
        Average fraction of honest nodes' outgoing slots pointing at
        adversaries after the simulated rounds.
    fully_eclipsed_fraction:
        Fraction of honest nodes whose *every* outgoing slot points at an
        adversary (the dangerous state for double-spend style attacks).
    baseline_capture:
        Expected capture under the random topology (≈ the adversary
        fraction), included for comparison.
    """

    head_start_ms: float
    adversary_fraction: float
    outgoing_capture: float
    fully_eclipsed_fraction: float
    baseline_capture: float

    @property
    def amplification(self) -> float:
        """How much the adversary's presence is amplified over random chance."""
        if self.baseline_capture <= 0:
            return float("nan")
        return self.outgoing_capture / self.baseline_capture


def run_eclipse_attack(
    num_nodes: int = 150,
    adversary_fraction: float = 0.1,
    head_start_ms: float = 30.0,
    rounds: int = 12,
    blocks_per_round: int = 40,
    exploration_peers: int | None = None,
    seed: int = 0,
) -> EclipseExposure:
    """Simulate the early-delivery eclipse strategy against Perigee-Subset.

    Parameters mirror the defaults of the rest of the evaluation;
    ``exploration_peers`` can be set to 0 to measure how much worse the
    exposure becomes without Perigee's random-exploration mitigation.
    """
    if not 0.0 < adversary_fraction < 1.0:
        raise ValueError("adversary_fraction must be in (0, 1)")
    config = default_config(
        num_nodes=num_nodes,
        rounds=rounds,
        blocks_per_round=blocks_per_round,
        seed=seed,
    )
    rng = np.random.default_rng(seed)
    population = generate_population(config, rng)
    latency = build_latency_model(config, population, rng)
    num_adversaries = max(1, int(round(num_nodes * adversary_fraction)))
    adversaries = set(
        int(node) for node in rng.choice(num_nodes, size=num_adversaries, replace=False)
    )
    protocol = _HeadStartPerigee(
        adversaries, head_start_ms, exploration_peers=exploration_peers
    )
    simulator = Simulator(
        config,
        protocol,
        population=population,
        latency=latency,
        rng=np.random.default_rng(seed + 1),
    )
    simulator.run(rounds=rounds)

    honest = [node for node in range(num_nodes) if node not in adversaries]
    captures = []
    fully_eclipsed = 0
    for node_id in honest:
        outgoing = simulator.network.outgoing_neighbors(node_id)
        if not outgoing:
            continue
        captured = sum(1 for peer in outgoing if peer in adversaries)
        captures.append(captured / len(outgoing))
        if captured == len(outgoing):
            fully_eclipsed += 1
    return EclipseExposure(
        head_start_ms=head_start_ms,
        adversary_fraction=adversary_fraction,
        outgoing_capture=float(np.mean(captures)) if captures else float("nan"),
        fully_eclipsed_fraction=fully_eclipsed / len(honest) if honest else float("nan"),
        baseline_capture=adversary_fraction,
    )
