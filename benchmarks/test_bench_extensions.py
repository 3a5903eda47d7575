"""Extension benchmarks: incremental deployment, incentives, eclipse.

These go beyond the paper's figures and quantify its qualitative claims
(Sections 1.2 and 6):

* adopters benefit at every partial-deployment level,
* free-riders are penalised under Perigee but not under random,
* early-delivery adversaries get amplified but exploration prevents full
  eclipses.
"""

from __future__ import annotations

from benchmarks.conftest import print_banner
from repro.analysis.incremental import run_incremental_deployment
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


def test_scaling_of_the_headline_improvement(benchmark, scale):
    from repro.analysis.experiments import compare_protocols
    from repro.config import default_config

    def improvement(num_nodes: int, rounds: int) -> float:
        config = default_config(
            num_nodes=num_nodes,
            rounds=rounds,
            blocks_per_round=scale.blocks_per_round,
            seed=scale.seed,
        )
        result = compare_protocols(config, ("random", "perigee-subset"))
        return result.improvement("perigee-subset")

    rounds_grid = (5, 10, 20, max(30, scale.rounds))
    rounds_size = max(150, scale.num_nodes // 2)
    sizes = (scale.num_nodes // 3, scale.num_nodes // 2, scale.num_nodes)

    def run_scaling():
        by_rounds = [improvement(rounds_size, rounds) for rounds in rounds_grid]
        by_size = [improvement(size, scale.rounds) for size in sizes]
        return by_rounds, by_size

    by_rounds, by_size = benchmark.pedantic(run_scaling, rounds=1, iterations=1)
    print_banner("Extension — scaling of the Perigee-Subset improvement over random")
    print(f"by number of rounds (fixed size n = {rounds_size}):")
    for rounds, gain in zip(rounds_grid, by_rounds):
        print(f"  rounds {rounds:>3}: improvement {gain * 100:+.1f}%")
    print(f"by network size (fixed rounds = {scale.rounds}):")
    for size, gain in zip(sizes, by_size):
        print(f"  n = {size:>5}: improvement {gain * 100:+.1f}%")
    # Shape: more rounds never hurt much, and the largest-round / largest-size
    # points show a solid improvement.
    assert by_rounds[-1] >= by_rounds[0] - 0.02
    assert by_rounds[-1] > 0.10
    assert by_size[-1] > 0.10

