"""Figure 5: edge-latency histograms of the learned topologies.

Under uniform hash power, the paper plots histograms of the per-edge link
latencies of the overlays produced by the different algorithms.  All
distributions are bimodal (intra- vs inter-continental edges); Perigee-Subset
ends up with the bulk of its edges in the low-latency mode, showing that nodes
learn to keep nearby, well-connected neighbors.
"""

from __future__ import annotations

import numpy as np

from benchmarks.conftest import print_banner
from repro.analysis.experiments import FIGURE5_PROTOCOLS, run_experiment
from repro.analysis.figures import figure5_rows


def test_figure5_edge_latency_histograms(benchmark, scale):
    result = benchmark.pedantic(
        run_experiment,
        args=("figure5",),
        kwargs=dict(
            num_nodes=scale.num_nodes,
            rounds=scale.rounds,
            seed=scale.seed,
            blocks_per_round=scale.blocks_per_round,
            protocols=FIGURE5_PROTOCOLS,
        ),
        rounds=1,
        iterations=1,
    )
    print_banner("Figure 5 — edge-latency histograms under uniform hash power")
    print(f"{'protocol':>16}  {'mean edge ms':>12}  {'median edge ms':>14}  {'low-mode %':>10}")
    for protocol, mean_ms, median_ms, low_fraction in figure5_rows(result):
        print(
            f"{protocol:>16}  {mean_ms:>12.1f}  {median_ms:>14.1f}  {low_fraction * 100:>9.1f}%"
        )
    print()
    print("histogram bin counts (normalised), low -> high latency:")
    for protocol, histogram in result.histograms.items():
        counts = histogram.counts
        if counts.sum() > 0:
            normalised = counts / counts.sum()
        else:
            normalised = counts
        bars = " ".join(f"{value:.2f}" for value in normalised[:15])
        print(f"  {protocol:>16}: {bars} ...")

    histograms = result.histograms
    # Shape: Perigee-Subset concentrates its edges in the low-latency mode far
    # more than the random topology, and more than the geographic heuristic;
    # the geometric construction is the extreme case.
    assert (
        histograms["perigee-subset"].low_mode_fraction
        > histograms["random"].low_mode_fraction
    )
    assert histograms["perigee-subset"].mean_ms < histograms["random"].mean_ms
    assert histograms["geometric"].low_mode_fraction >= np.max(
        [histograms["random"].low_mode_fraction, 0.5]
    )
