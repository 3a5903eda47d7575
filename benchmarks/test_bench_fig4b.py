"""Figure 4(b): concentrated mining pools with fast interconnects.

10% of the nodes are randomly designated high-power miners holding 90% of the
network's hash power, and the link latencies among them are much smaller than
default.  The paper's observation: Perigee exploits and explores the network
to get much closer to the fully-connected ideal than the baselines, because a
peer mostly needs good connectivity to the mining pool, not to every node.
"""

from __future__ import annotations

from benchmarks.conftest import print_banner
from repro.analysis.experiments import run_experiment
from repro.analysis.reporting import render_experiment_report

PROTOCOLS = ("random", "geographic", "perigee-subset", "ideal")


def test_figure4b_concentrated_mining(benchmark, scale):
    result = benchmark.pedantic(
        run_experiment,
        args=("figure4b",),
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
    print_banner("Figure 4(b) — 10% of nodes hold 90% of hash power, fast miner links")
    print(render_experiment_report(result))
    curves = result.curves
    random_gap = curves["random"].median_ms - curves["ideal"].median_ms
    perigee_gap = curves["perigee-subset"].median_ms - curves["ideal"].median_ms
    print()
    print(
        f"gap to ideal: random {random_gap:.1f} ms, perigee-subset {perigee_gap:.1f} ms "
        f"(perigee closes {100 * (1 - perigee_gap / random_gap):.0f}% of the gap)"
    )

    # Shape: Perigee gets much closer to the ideal than the baselines.
    assert perigee_gap < random_gap
    assert perigee_gap < curves["geographic"].median_ms - curves["ideal"].median_ms
    assert result.improvement("perigee-subset") > 0.10
