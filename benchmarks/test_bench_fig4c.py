"""Figure 4(c): fast block-distribution (relay) network.

100 nodes are organised as a low-latency relay tree (bloXroute / Falcon /
FIBRE style) and also validate blocks at 10% of the default delay.  The
paper's observation: even though Perigee is never told the relay network
exists, it adapts its topology to exploit it and approaches the
fully-connected ideal.
"""

from __future__ import annotations

from benchmarks.conftest import print_banner
from repro.analysis.experiments import run_experiment
from repro.analysis.reporting import render_experiment_report

PROTOCOLS = ("random", "geographic", "perigee-subset", "ideal")


def test_figure4c_relay_network(benchmark, scale):
    result = benchmark.pedantic(
        run_experiment,
        args=("figure4c",),
        kwargs=dict(
            num_nodes=scale.num_nodes,
            rounds=scale.rounds,
            repeats=scale.repeats,
            seed=scale.seed,
            blocks_per_round=scale.blocks_per_round,
            relay_size=min(100, scale.num_nodes // 3),
            protocols=PROTOCOLS,
        ),
        rounds=1,
        iterations=1,
    )
    print_banner("Figure 4(c) — low-latency relay overlay (bloXroute-like)")
    print(render_experiment_report(result))
    curves = result.curves
    random_gap = curves["random"].median_ms - curves["ideal"].median_ms
    perigee_gap = curves["perigee-subset"].median_ms - curves["ideal"].median_ms
    print()
    print(
        f"gap to ideal: random {random_gap:.1f} ms, perigee-subset {perigee_gap:.1f} ms"
    )

    # Shape: Perigee exploits the relay overlay and gets closer to the ideal
    # than the oblivious baselines.
    assert curves["perigee-subset"].median_ms < curves["random"].median_ms
    assert perigee_gap < random_gap
