#!/usr/bin/env python3
"""Flight recorder: watch *how* a Perigee run converges, round by round.

The other examples report what a run produced; this one records the run
itself.  It attaches a :class:`~repro.telemetry.flight.FlightRecorder` to a
Perigee-Subset simulation, then reads the artifact back to print the story
of the run — the in-flight sampled reach90 trend, the rewire churn curve,
and how the overlay's structure drifted from the bootstrap topology — and
finally exports the span stream as a Chrome trace you can drop into
https://ui.perfetto.dev for a zoomable flame chart of the round loop.

Run with::

    python examples/flight_recorder.py

Artifacts land in ``flight-artifacts/`` next to the working directory:
``demo-run/`` (the recorder's JSONL/NPZ directory) and ``trace.json``.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.config import default_config
from repro.core.simulator import Simulator
from repro.protocols.registry import make_protocol
from repro.telemetry.chrome import write_chrome_trace
from repro.telemetry.flight import (
    FlightRecorder,
    flight_report,
    render_flight_report,
    use_flight_recorder,
)
from repro.telemetry.recorder import MetricsRecorder, use_recorder


def main() -> None:
    config = default_config(
        num_nodes=200,
        rounds=12,
        blocks_per_round=40,
        seed=7,
    )
    artifacts = Path("flight-artifacts")
    run_dir = artifacts / "demo-run"
    print("Perigee flight-recorder demo")
    print(f"  nodes: {config.num_nodes}, rounds: {config.rounds}, "
          f"blocks/round: {config.blocks_per_round}")
    print(f"  artifacts: {run_dir}/")
    print()

    simulator = Simulator(
        config,
        make_protocol("perigee-subset"),
        rng=np.random.default_rng(config.seed),
    )
    # Record per-round rows *and* keep the span stream for the Chrome trace.
    flight = FlightRecorder(
        run_dir,
        meta={"experiment": "flight-demo", "protocol": "perigee-subset"},
        delay_every=2,
    )
    recorder = MetricsRecorder(trace=True)
    with use_recorder(recorder), use_flight_recorder(flight):
        simulator.run(rounds=config.rounds)
        reach = simulator.evaluate()
    flight.record_final(reach90=reach)
    flight.close()

    # The artifact tells the run's story — same payload `perigee-sim
    # inspect` renders for store-managed runs.
    print(render_flight_report(flight_report(run_dir)))
    print()

    events = write_chrome_trace(artifacts / "trace.json", recorder.trace)
    print(
        f"wrote {events} span event(s) to {artifacts / 'trace.json'} — "
        "load it at https://ui.perfetto.dev"
    )


if __name__ == "__main__":
    main()
