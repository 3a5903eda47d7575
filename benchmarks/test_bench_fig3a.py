"""Figure 3(a): delay to 90% of hash power under uniform hash power.

Protocol line-up: random, geographic, Kademlia, Perigee-Vanilla, Perigee-UCB,
Perigee-Subset and the fully-connected ideal.  The benchmark prints each
protocol's sorted-curve summary and the improvement over the random baseline —
the headline numbers of the paper (Perigee-Subset ≈ 33% better than random,
Perigee-UCB ≈ 11%, geographic in between, Kademlia ≈ random).
"""

from __future__ import annotations

from benchmarks.conftest import print_banner
from repro.analysis.experiments import FIGURE3_PROTOCOLS, run_experiment
from repro.analysis.figures import delay_curve_series
from repro.analysis.reporting import render_experiment_report


def test_figure3a_uniform_hash_power(benchmark, scale):
    result = benchmark.pedantic(
        run_experiment,
        args=("figure3a",),
        kwargs=dict(
            num_nodes=scale.num_nodes,
            rounds=scale.rounds,
            repeats=scale.repeats,
            seed=scale.seed,
            blocks_per_round=scale.blocks_per_round,
            protocols=FIGURE3_PROTOCOLS,
        ),
        rounds=1,
        iterations=1,
    )
    print_banner("Figure 3(a) — uniform hash power, default delays")
    print(render_experiment_report(result))
    print()
    print("sorted per-node delay curves (node rank -> ms, 90% hash power):")
    for protocol, points in delay_curve_series(result, num_points=6).items():
        rendered = ", ".join(f"{rank}:{value:.0f}" for rank, value in points)
        print(f"  {protocol:>16}: {rendered}")
    print()
    print(
        "headline: perigee-subset improvement over random = "
        f"{result.improvement('perigee-subset') * 100:.1f}% (paper: ~33%)"
    )
    print(
        "          perigee-ucb improvement over random    = "
        f"{result.improvement('perigee-ucb') * 100:.1f}% (paper: ~11%)"
    )

    # Shape assertions: the paper's ordering of the protocols.
    curves = result.curves
    assert curves["ideal"].median_ms <= curves["perigee-subset"].median_ms
    assert curves["perigee-subset"].median_ms < curves["random"].median_ms
    assert curves["geographic"].median_ms < curves["random"].median_ms
    assert result.improvement("perigee-subset") > 0.10
