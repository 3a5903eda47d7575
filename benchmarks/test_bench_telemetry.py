"""Benchmark of the telemetry recorder's overhead on the simulation loop.

Runs the same Perigee-Subset simulation twice — once under the default
:class:`~repro.telemetry.recorder.NullRecorder` and once with a live
:class:`~repro.telemetry.recorder.MetricsRecorder` installed — from fresh
same-seed simulators, and measures the per-round wall clock of each arm
(min over repeats, which is the noise-robust estimator for "how fast can
this go").

Two properties are enforced:

* **bit-identical results** — telemetry never touches the RNG, so the
  final topology must match edge-for-edge between the arms;
* **bounded overhead** — at the paper scale (N >= 1000, where a round
  costs hundreds of milliseconds) the instrumented arm must be within 5%
  of the null arm, the acceptance bar of the observability PR.  At smaller
  CI scales a round is so cheap that scheduler noise dominates, so only a
  loose sanity bound (2x) is asserted.

A third arm runs with a live flight recorder
(:class:`~repro.telemetry.flight.FlightRecorder`) attached: per-round
topology summaries, sampled delay percentiles, and the JSONL/NPZ artifact.
The same bit-identity property holds, and at paper scale the flight arm
must stay within its own 10% round-loop budget.

One ``BENCH-JSON`` line is emitted with all timings and overhead fractions
so CI logs are scrapeable.
"""

from __future__ import annotations

import os
import time

from repro.config import default_config
from repro.core.simulator import Simulator
from repro.protocols.registry import make_protocol
from repro.telemetry.flight import FlightRecorder, use_flight_recorder
from repro.telemetry.recorder import MetricsRecorder, use_recorder

from benchmarks.conftest import emit_bench_json, print_banner

NODES = int(os.environ.get("PERIGEE_BENCH_NODES", "300"))
ROUNDS = int(os.environ.get("PERIGEE_BENCH_TELEMETRY_ROUNDS", "4"))
BLOCKS = int(os.environ.get("PERIGEE_BENCH_BLOCKS", "50"))
REPEATS = int(os.environ.get("PERIGEE_BENCH_TELEMETRY_REPEATS", "3"))

#: The PR's acceptance bar, asserted at paper scale only.
STRICT_OVERHEAD = 0.05
STRICT_NODES = 1000
#: Sanity bound at small CI scale, where timing noise dominates.
LOOSE_OVERHEAD = 1.0
#: Flight-recorder round-loop budget at paper scale (it does real work per
#: round — topology summary + sampled delay evaluation — unlike counters).
FLIGHT_OVERHEAD = 0.10
FLIGHT_LOOSE_OVERHEAD = 2.0


def _fresh_simulator() -> Simulator:
    config = default_config(
        num_nodes=NODES, rounds=ROUNDS, blocks_per_round=BLOCKS, seed=0
    )
    return Simulator(config, make_protocol("perigee-subset"))


def _topology(simulator: Simulator) -> list[tuple[int, int]]:
    return sorted(
        (node, peer)
        for node in range(simulator.network.num_nodes)
        for peer in simulator.network.outgoing_neighbors(node)
    )


def _run_arm(recorder: MetricsRecorder | None) -> tuple[float, list]:
    """(seconds for all rounds, final topology) for one fresh simulator."""
    simulator = _fresh_simulator()
    start = time.perf_counter()
    if recorder is None:
        simulator.run(ROUNDS)
    else:
        with use_recorder(recorder):
            simulator.run(ROUNDS)
    elapsed = time.perf_counter() - start
    return elapsed, _topology(simulator)


def _run_flight_arm(directory) -> tuple[float, list]:
    """(seconds for all rounds, final topology) with a flight recorder on."""
    simulator = _fresh_simulator()
    flight = FlightRecorder(directory)
    start = time.perf_counter()
    with use_flight_recorder(flight):
        simulator.run(ROUNDS)
    flight.close()
    elapsed = time.perf_counter() - start
    return elapsed, _topology(simulator)


def test_bench_telemetry_overhead(tmp_path):
    print_banner(
        f"Telemetry recorder overhead, N={NODES}, {ROUNDS} rounds x "
        f"{REPEATS} repeats (null vs metrics recorder)"
    )
    null_times, metrics_times, flight_times = [], [], []
    null_topology = metrics_topology = flight_topology = None
    recorder = None
    for repeat in range(REPEATS):
        elapsed, topology = _run_arm(None)
        null_times.append(elapsed)
        assert null_topology is None or topology == null_topology
        null_topology = topology

        recorder = MetricsRecorder()
        elapsed, topology = _run_arm(recorder)
        metrics_times.append(elapsed)
        assert metrics_topology is None or topology == metrics_topology
        metrics_topology = topology

        elapsed, topology = _run_flight_arm(tmp_path / f"flight-{repeat}")
        flight_times.append(elapsed)
        assert flight_topology is None or topology == flight_topology
        flight_topology = topology

    # Telemetry must never touch the RNG: same seed => same final topology.
    assert null_topology == metrics_topology
    # The flight recorder only reads state (its delay sampling has a private
    # RNG), so the same bit-identity holds with full per-round recording on.
    assert null_topology == flight_topology

    # The last instrumented run must actually have recorded the round loop.
    counters = recorder.snapshot()["counters"]
    assert counters.get("round.count") == ROUNDS
    assert counters.get("round.blocks_mined", 0) > 0
    assert counters.get("round.edges_observed", 0) > 0
    span_names = {key.split("|")[0] for key in recorder.snapshot()["spans"]}
    assert {"round.mine", "round.propagate", "round.observe", "round.update"} <= (
        span_names
    )

    null_s = min(null_times)
    metrics_s = min(metrics_times)
    flight_s = min(flight_times)
    overhead = (metrics_s - null_s) / null_s if null_s > 0 else 0.0
    flight_overhead = (flight_s - null_s) / null_s if null_s > 0 else 0.0
    emit_bench_json(
        {
            "bench": "telemetry-overhead",
            "num_nodes": NODES,
            "rounds": ROUNDS,
            "blocks_per_round": BLOCKS,
            "null_s": round(null_s, 4),
            "metrics_s": round(metrics_s, 4),
            "flight_s": round(flight_s, 4),
            "overhead": round(overhead, 4),
            "flight_overhead": round(flight_overhead, 4),
        }
    )
    bound = STRICT_OVERHEAD if NODES >= STRICT_NODES else LOOSE_OVERHEAD
    assert overhead < bound, (
        f"telemetry overhead {overhead:.1%} exceeds the "
        f"{bound:.0%} bound at N={NODES}"
    )
    flight_bound = (
        FLIGHT_OVERHEAD if NODES >= STRICT_NODES else FLIGHT_LOOSE_OVERHEAD
    )
    assert flight_overhead < flight_bound, (
        f"flight-recorder overhead {flight_overhead:.1%} exceeds the "
        f"{flight_bound:.0%} round-loop budget at N={NODES}"
    )
