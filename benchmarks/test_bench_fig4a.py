"""Figure 4(a): block-validation-delay sweep (0.1x to 10x the 50 ms default).

The paper's observation: with small validation delays Perigee finds topologies
at least 62% better than random, but as validation delay grows the hop count
(graph diameter) dominates and Perigee's advantage shrinks towards the random
protocol's performance.  The benchmark sweeps the same multipliers and prints
the per-scale improvement, which should be monotonically decreasing.
"""

from __future__ import annotations

from benchmarks.conftest import print_banner
from repro.analysis.experiments import FIGURE4A_SCALES, run_experiment
from repro.analysis.reporting import render_sweep_report


def test_figure4a_validation_delay_sweep(benchmark, scale):
    sweep = benchmark.pedantic(
        run_experiment,
        args=("figure4a",),
        kwargs=dict(
            num_nodes=scale.num_nodes,
            rounds=scale.rounds,
            repeats=scale.repeats,
            seed=scale.seed,
            blocks_per_round=scale.blocks_per_round,
            scales=FIGURE4A_SCALES,
        ),
        rounds=1,
        iterations=1,
    )
    print_banner("Figure 4(a) — validation delay sweep (0.1x .. 10x of 50 ms)")
    print(render_sweep_report(sweep))
    improvements = sweep.improvements()
    print()
    print(
        "shape check: improvement at 0.1x = "
        f"{improvements[0.1] * 100:.1f}%  vs at 10x = {improvements[10.0] * 100:.1f}%"
    )

    # Shape: Perigee's advantage is largest when validation delay is small and
    # collapses towards the random baseline when validation delay dominates.
    assert improvements[0.1] > improvements[10.0]
    assert improvements[0.1] > 0.15
    assert improvements[10.0] < 0.15
