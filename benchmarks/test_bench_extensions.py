"""Extension benchmarks: incremental deployment, incentives, eclipse, fork rate.

These go beyond the paper's figures and quantify its qualitative claims
(Sections 1.2 and 6) plus the delay-to-throughput link of Section 1.1.2:

* adopters benefit at every partial-deployment level,
* free-riders are penalised under Perigee but not under random,
* early-delivery adversaries get amplified but exploration prevents full
  eclipses,
* the measured delay reductions translate into fork-rate reductions.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_banner
from repro.analysis.experiments import run_experiment
from repro.analysis.incremental import run_incremental_deployment
from repro.metrics.forks import estimate_fork_rate, fork_rate_improvement
from repro.security.eclipse import run_eclipse_attack
from repro.security.freeride import run_free_riding_experiment


def test_incremental_deployment(benchmark, scale):
    results = benchmark.pedantic(
        run_incremental_deployment,
        kwargs=dict(
            adoption_fractions=(0.25, 0.5, 0.75, 1.0),
            num_nodes=max(150, scale.num_nodes // 2),
            rounds=max(10, scale.rounds // 2),
            blocks_per_round=scale.blocks_per_round,
            seed=scale.seed,
        ),
        rounds=1,
        iterations=1,
    )
    print_banner("Extension — incremental deployment (Section 1.2 claim)")
    print(f"{'adoption':>9}  {'adopter ms':>10}  {'non-adopter ms':>14}  {'adopter gain':>12}")
    for result in results:
        non_adopter = (
            f"{result.non_adopter_delay_ms:.1f}"
            if result.adoption_fraction < 1.0
            else "n/a"
        )
        print(
            f"{result.adoption_fraction * 100:>8.0f}%  {result.adopter_delay_ms:>10.1f}  "
            f"{non_adopter:>14}  {result.adopter_improvement * 100:>+11.1f}%"
        )
    for result in results:
        assert result.adopter_improvement > 0.0
    partial = results[0]
    assert partial.adopter_delay_ms <= partial.non_adopter_delay_ms * 1.05


def test_incentives_and_eclipse(benchmark, scale):
    def run_security():
        free_ride = run_free_riding_experiment(
            num_nodes=max(120, scale.num_nodes // 2),
            num_free_riders=max(5, scale.num_nodes // 30),
            rounds=max(10, scale.rounds // 2),
            blocks_per_round=scale.blocks_per_round,
            seed=scale.seed,
        )
        eclipse = run_eclipse_attack(
            num_nodes=max(120, scale.num_nodes // 2),
            adversary_fraction=0.1,
            head_start_ms=40.0,
            rounds=max(10, scale.rounds // 2),
            blocks_per_round=scale.blocks_per_round,
            seed=scale.seed,
        )
        return free_ride, eclipse

    free_ride, eclipse = benchmark.pedantic(run_security, rounds=1, iterations=1)
    print_banner("Extension — incentive compatibility and eclipse exposure (Section 6)")
    print("free-riding penalty (extra receive delay of a non-relaying node):")
    for name, outcome in free_ride.items():
        print(
            f"  {name:>16}: compliant {outcome.compliant_receive_ms:.1f} ms, "
            f"free-rider {outcome.free_rider_receive_ms:.1f} ms "
            f"(penalty {outcome.penalty * 100:+.1f}%)"
        )
    print()
    print(
        "eclipse (10% adversaries, 40 ms early delivery): "
        f"outgoing-slot capture {eclipse.outgoing_capture * 100:.1f}% "
        f"(baseline {eclipse.baseline_capture * 100:.0f}%), "
        f"fully eclipsed nodes {eclipse.fully_eclipsed_fraction * 100:.1f}%"
    )
    assert free_ride["perigee-subset"].penalty > free_ride["random"].penalty
    assert eclipse.outgoing_capture > eclipse.baseline_capture
    assert eclipse.fully_eclipsed_fraction < 0.5


def test_bandwidth_heterogeneity(benchmark, scale):
    from repro.analysis.bandwidth import run_bandwidth_experiment

    results = benchmark.pedantic(
        run_bandwidth_experiment,
        kwargs=dict(
            num_nodes=max(150, scale.num_nodes // 2),
            slow_fraction=0.2,
            rounds=max(10, scale.rounds // 2),
            blocks_per_round=scale.blocks_per_round,
            seed=scale.seed,
        ),
        rounds=1,
        iterations=1,
    )
    print_banner(
        "Extension — bandwidth heterogeneity (20% of nodes on a 4 Mbit/s uplink)"
    )
    print(f"{'protocol':>16}  {'median delay ms':>15}  {'slow-peer share of outgoing':>27}")
    for name, outcome in results.items():
        print(
            f"{name:>16}  {outcome.median_delay_ms:>15.1f}  "
            f"{outcome.slow_node_outgoing_share * 100:>26.1f}%"
        )
    print(
        "  (slow nodes are 20% of the population; Perigee choosing them less "
        "often is the bandwidth-awareness claim of the introduction)"
    )
    assert (
        results["perigee-subset"].median_delay_ms
        < results["random"].median_delay_ms
    )
    assert (
        results["perigee-subset"].slow_node_outgoing_share
        < results["random"].slow_node_outgoing_share
    )


def test_scaling_of_the_headline_improvement(benchmark, scale):
    from repro.analysis.scaling import rounds_scaling, size_scaling

    def run_scaling():
        by_rounds = rounds_scaling(
            rounds_grid=(5, 10, 20, max(30, scale.rounds)),
            num_nodes=max(150, scale.num_nodes // 2),
            blocks_per_round=scale.blocks_per_round,
            seed=scale.seed,
        )
        by_size = size_scaling(
            sizes=(scale.num_nodes // 3, scale.num_nodes // 2, scale.num_nodes),
            rounds=scale.rounds,
            blocks_per_round=scale.blocks_per_round,
            seed=scale.seed,
        )
        return by_rounds, by_size

    by_rounds, by_size = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    print_banner("Extension — scaling of the Perigee-Subset improvement over random")
    print("by number of rounds (fixed size):")
    for point in by_rounds:
        print(
            f"  rounds {point.rounds:>3}: improvement {point.improvement * 100:+.1f}%"
        )
    print("by network size (fixed rounds):")
    for point in by_size:
        print(
            f"  n = {point.num_nodes:>5}: improvement {point.improvement * 100:+.1f}%"
        )
    # Shape: more rounds never hurt much, and the largest-round / largest-size
    # points show a solid improvement.
    assert by_rounds[-1].improvement >= by_rounds[0].improvement - 0.02
    assert by_rounds[-1].improvement > 0.10
    assert by_size[-1].improvement > 0.10


def test_churn_with_limited_peer_knowledge(benchmark, scale):
    from repro.analysis.churn import run_churn_experiment

    results = benchmark.pedantic(
        run_churn_experiment,
        kwargs=dict(
            num_nodes=max(120, scale.num_nodes // 2),
            rounds=max(10, scale.rounds // 2),
            blocks_per_round=scale.blocks_per_round,
            churn_rate=0.05,
            address_capacity=48,
            seed=scale.seed,
        ),
        rounds=1,
        iterations=1,
    )
    print_banner(
        "Extension — 5% per-round churn with bounded address books (Section 6)"
    )
    print(f"{'protocol':>16}  {'delay w/ churn':>14}  {'delay w/o churn':>15}  "
          f"{'churn penalty':>13}  {'addr coverage':>13}")
    for name, outcome in results.items():
        print(
            f"{name:>16}  {outcome.median_delay_ms:>14.1f}  "
            f"{outcome.median_delay_no_churn_ms:>15.1f}  "
            f"{outcome.churn_penalty * 100:>+12.1f}%  "
            f"{outcome.address_coverage * 100:>12.1f}%"
        )
    assert (
        results["perigee-subset"].median_delay_ms
        < results["random"].median_delay_ms
    )


def test_fork_rate_translation(benchmark, scale):
    result = benchmark.pedantic(
        run_experiment,
        args=("figure3a",),
        kwargs=dict(
            num_nodes=max(150, scale.num_nodes // 2),
            rounds=max(10, scale.rounds // 2),
            repeats=1,
            seed=scale.seed,
            blocks_per_round=scale.blocks_per_round,
            protocols=("random", "perigee-subset"),
        ),
        rounds=1,
        iterations=1,
    )
    print_banner("Extension — fork-rate translation of the delay improvement (§1.1.2)")
    # Express the measured propagation delays as fork probabilities for chains
    # with different block intervals: a slow 10-second chain and a fast
    # 2-second chain (where propagation delay starts to matter a lot).
    for interval_ms, label in ((10_000.0, "10 s blocks"), (2_000.0, "2 s blocks")):
        random_reach = result.curves["random"].sorted_delays_ms
        perigee_reach = result.curves["perigee-subset"].sorted_delays_ms
        random_forks = estimate_fork_rate(random_reach, block_interval_ms=interval_ms)
        perigee_forks = estimate_fork_rate(perigee_reach, block_interval_ms=interval_ms)
        reduction = fork_rate_improvement(
            perigee_reach, random_reach, block_interval_ms=interval_ms
        )
        print(
            f"  {label:>12}: fork probability random "
            f"{random_forks.mean_fork_probability:.4f} -> perigee "
            f"{perigee_forks.mean_fork_probability:.4f} "
            f"(reduction {reduction * 100:.1f}%)"
        )
        assert reduction > 0.05
    assert np.isfinite(result.improvement("perigee-subset"))
