"""Ablation benchmarks for the design choices called out in DESIGN.md.

These go beyond the paper's figures and quantify how much each design knob
matters at the benchmark scale:

* the exploration budget ``e_v`` (0, 2, 4 random peers per round),
* the scoring percentile (50th vs 90th),
* the geographic baseline's local/remote split (the paper explicitly notes
  that the optimal balance is unclear).
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_banner
from repro.analysis.experiments import compare_protocols
from repro.config import default_config
from repro.core.simulator import Simulator
from repro.datasets.bitnodes import generate_population
from repro.latency.geo import GeographicLatencyModel
from repro.metrics.delay import hash_power_reach_times
from repro.protocols.geographic import GeographicProtocol
from repro.protocols.perigee.subset import PerigeeSubsetProtocol
from repro.protocols.random_policy import RandomProtocol


def _median_reach(simulator, population):
    arrival = simulator.engine.all_sources_arrival_times(simulator.network)
    reach = hash_power_reach_times(arrival, population.hash_power, 0.9)
    return float(np.median(reach[np.isfinite(reach)]))


def run_ablations(scale):
    config = default_config(
        num_nodes=max(150, scale.num_nodes // 2),
        rounds=max(10, scale.rounds // 2),
        blocks_per_round=scale.blocks_per_round,
        seed=scale.seed,
    )
    rng = np.random.default_rng(config.seed)
    population = generate_population(config, rng)
    latency = GeographicLatencyModel(population.nodes, rng)

    results: dict[str, float] = {}

    baseline = Simulator(
        config, RandomProtocol(), population=population, latency=latency,
        rng=np.random.default_rng(1),
    )
    results["random baseline"] = _median_reach(baseline, population)

    for exploration in (0, 2, 4):
        simulator = Simulator(
            config,
            PerigeeSubsetProtocol(exploration_peers=exploration),
            population=population,
            latency=latency,
            rng=np.random.default_rng(2),
        )
        simulator.run(rounds=config.rounds)
        results[f"perigee-subset, e_v={exploration}"] = _median_reach(
            simulator, population
        )

    for percentile in (50.0, 90.0):
        simulator = Simulator(
            config,
            PerigeeSubsetProtocol(percentile=percentile),
            population=population,
            latency=latency,
            rng=np.random.default_rng(3),
        )
        simulator.run(rounds=config.rounds)
        results[f"perigee-subset, percentile={percentile:.0f}"] = _median_reach(
            simulator, population
        )

    for local_fraction in (0.25, 0.5, 0.75):
        simulator = Simulator(
            config,
            GeographicProtocol(local_fraction=local_fraction),
            population=population,
            latency=latency,
            rng=np.random.default_rng(4),
        )
        results[f"geographic, local={local_fraction:.2f}"] = _median_reach(
            simulator, population
        )
    return results


def test_design_choice_ablations(benchmark, scale):
    results = benchmark.pedantic(run_ablations, args=(scale,), rounds=1, iterations=1)
    print_banner("Ablations — exploration budget, scoring percentile, local fraction")
    baseline = results["random baseline"]
    print(f"{'configuration':>34}  {'median delay (ms)':>18}  {'vs random':>10}")
    for name, value in results.items():
        improvement = (1.0 - value / baseline) * 100.0
        print(f"{name:>34}  {value:>18.1f}  {improvement:>+9.1f}%")

    # Sanity of the ablation: Perigee configurations that actually explore
    # (e_v >= 2) beat the random baseline.  The e_v=0 row is deliberately left
    # unconstrained — with no exploration a node can only ever keep its
    # initial random neighbors, so nothing is learned; that is the point of
    # the ablation and of Algorithm 1's exploration step.
    for name, value in results.items():
        if name.startswith("perigee-subset") and "e_v=0" not in name:
            assert value < baseline


def run_convergence(scale):
    config = default_config(
        num_nodes=max(150, scale.num_nodes // 2),
        rounds=scale.rounds,
        blocks_per_round=scale.blocks_per_round,
        seed=scale.seed,
    )
    simulator = Simulator(config, PerigeeSubsetProtocol())
    every = max(1, config.rounds // 8)
    trajectory = []
    for stop in range(every, config.rounds + 1, every):
        simulator.run(stop)
        reach = simulator.evaluate()
        finite = reach[np.isfinite(reach)]
        if finite.size:
            trajectory.append((stop - 1, float(np.percentile(finite, 90))))
    return trajectory


def test_convergence_trajectory(benchmark, scale):
    trajectory = benchmark.pedantic(
        run_convergence, args=(scale,), rounds=1, iterations=1
    )
    print_banner("Convergence — Perigee-Subset p90 delay per round (Section 5.2)")
    for round_index, value in trajectory:
        print(f"  after round {round_index + 1:>3}: {value:.1f} ms")
    assert trajectory[-1][1] <= trajectory[0][1]
