#!/usr/bin/env python3
"""Extending the library: plug in a custom neighbor-selection protocol.

The paper frames p2p topology design as a multi-armed bandit problem; the
library keeps the protocol interface small precisely so new scoring ideas can
be dropped in and evaluated against the published baselines.  This example
implements an epsilon-greedy variant — keep the neighbors with the best *mean*
(not 90th percentile) relative delivery time, and with probability epsilon
replace one extra neighbor at random — registers it, and compares it against
Perigee-Subset and the random baseline on the default setting.

Run with::

    python examples/custom_protocol.py
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.analysis.reporting import format_table
from repro.config import default_config
from repro.core.simulator import Simulator
from repro.datasets.bitnodes import generate_population
from repro.latency.geo import GeographicLatencyModel
from repro.metrics.delay import delay_curve, improvement_over_baseline
from repro.protocols.perigee.base import PerigeeBase
from repro.protocols.registry import (
    make_protocol,
    register_protocol,
    unregister_protocol,
)


class EpsilonGreedyProtocol(PerigeeBase):
    """Keep neighbors with the best mean delivery time; explore with prob. epsilon.

    Scorers do not see the round's random generator (it drives the rewire),
    so the epsilon draws come from a generator the protocol owns, seeded by
    ``seed``.
    """

    name = "epsilon-greedy"

    def __init__(self, epsilon: float = 0.2, seed: int = 0, **kwargs) -> None:
        super().__init__(**kwargs)
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be within [0, 1]")
        self._epsilon = epsilon
        self._rng = np.random.default_rng(seed)

    def select_retained_batch(
        self,
        node_ids: Sequence[int],
        neighbors: Sequence[np.ndarray],
        times: Sequence[np.ndarray],
        retain_budget: int,
    ) -> list[set[int]]:
        # ``times[i]`` holds one row of time-normalised delivery offsets per
        # outgoing neighbor of ``node_ids[i]`` (``inf`` where a block was
        # never delivered).
        if retain_budget <= 0:
            return [set() for _ in node_ids]

        def mean_delivery(row: np.ndarray) -> float:
            samples = row[np.isfinite(row)]
            return float(np.mean(samples)) if samples.size else float("inf")

        retained_sets = []
        for ids, block in zip(neighbors, times):
            ranked = sorted(zip(map(mean_delivery, block), ids.tolist()))
            retained = [peer for _, peer in ranked[:retain_budget]]
            if retained and self._rng.random() < self._epsilon:
                # Drop one retained neighbor at random to explore more
                # aggressively.
                retained = retained[:-1]
            retained_sets.append(set(retained))
        return retained_sets


def main() -> None:
    config = default_config(num_nodes=200, rounds=15, blocks_per_round=40, seed=3)
    rng = np.random.default_rng(config.seed)
    population = generate_population(config, rng)
    latency = GeographicLatencyModel(population.nodes, rng)

    register_protocol("epsilon-greedy", EpsilonGreedyProtocol)
    try:
        curves = {}
        for name in ("random", "epsilon-greedy", "perigee-subset"):
            simulator = Simulator(
                config,
                make_protocol(name),
                population=population,
                latency=latency,
                rng=np.random.default_rng(config.seed + 1),
            )
            if simulator.protocol.is_adaptive:
                print(f"running {config.rounds} rounds for {name!r} ...")
                simulator.run(rounds=config.rounds)
            curves[name] = delay_curve(
                simulator.evaluate(), name, config.hash_power_target
            )
    finally:
        unregister_protocol("epsilon-greedy")

    rows = []
    for name, curve in curves.items():
        improvement = improvement_over_baseline(curve, curves["random"])
        rows.append((name, f"{curve.median_ms:.1f}", f"{improvement * 100:+.1f}%"))
    print()
    print(
        format_table(
            ("protocol", "median delay to 90% hash power (ms)", "vs random"), rows
        )
    )
    print()
    print(
        "Custom protocols only need to implement select_retained_batch(); "
        "everything else (simulation, metrics, baselines) is reused from the "
        "library."
    )


if __name__ == "__main__":
    main()
