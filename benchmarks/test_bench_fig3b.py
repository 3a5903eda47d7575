"""Figure 3(b): delay to 90% of hash power under exponential hash power.

Identical to Figure 3(a) except that node hash power is drawn from an
exponential distribution (mean 1, normalised).  The paper reports the same
performance pattern, with Perigee-Subset again ≈ 33% better than random.
"""

from __future__ import annotations

from benchmarks.conftest import print_banner
from repro.analysis.experiments import run_experiment
from repro.analysis.reporting import render_experiment_report

PROTOCOLS = (
    "random",
    "geographic",
    "kademlia",
    "perigee-vanilla",
    "perigee-ucb",
    "perigee-subset",
    "ideal",
)


def test_figure3b_exponential_hash_power(benchmark, scale):
    result = benchmark.pedantic(
        run_experiment,
        args=("figure3b",),
        kwargs=dict(
            num_nodes=scale.num_nodes,
            rounds=scale.rounds,
            repeats=scale.repeats,
            seed=scale.seed,
            blocks_per_round=scale.blocks_per_round,
            protocols=PROTOCOLS,
        ),
        rounds=1,
        iterations=1,
    )
    print_banner("Figure 3(b) — exponential hash power")
    print(render_experiment_report(result))
    print()
    print(
        "headline: perigee-subset improvement over random = "
        f"{result.improvement('perigee-subset') * 100:.1f}% (paper: ~33%)"
    )

    curves = result.curves
    assert result.config.hash_power_distribution == "exponential"
    assert curves["ideal"].median_ms <= curves["perigee-subset"].median_ms
    assert curves["perigee-subset"].median_ms < curves["random"].median_ms
    assert result.improvement("perigee-subset") > 0.10
