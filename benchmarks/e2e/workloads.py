"""The three end-to-end workloads; each run is one fresh process.

``run.py`` starts this module once per run, so ``ru_maxrss`` is the run's
own peak and no import, cache or patched class leaks between runs::

    python -m benchmarks.e2e.workloads NAME --seed S --scale paper \\
        --mode untraced|traced|setup --seconds 30 --spawned-at T \\
        --work-dir DIR --out FILE

Every workload first builds its inputs from the seed (set-up), then runs a
timed phase through the public path a user takes, then checks the outputs.
``--mode setup`` stops at the end of set-up, which is how ``run.py`` samples
set-up time several times per run.  ``--mode traced`` installs the
per-layer tracing of :mod:`benchmarks.e2e.layers` around the timed phase.
The result is one JSON object written to ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Iterator

import numpy as np

from repro.analysis.experiments import figure3a_spec, scaling_specs
from repro.core.simulator import Simulator
from repro.runtime.aggregate import records_to_result
from repro.runtime.checkpoint import checkpoints_dir
from repro.runtime.cluster.queue import WorkQueue
from repro.runtime.executor import execute_sweep, run_task
from repro.runtime.store import ResultStore
from repro.runtime.tasks import TaskRecord
from repro.telemetry.fleet import fleet_status
from repro.telemetry.recorder import MetricsRecorder, use_recorder
from repro.telemetry.shards import load_worker_snapshots, merge_snapshots

from benchmarks.e2e.layers import Tracer, derive_layers

#: Workload parameters per scale.  ``paper`` is what BENCHMARK.json
#: measures; ``smoke`` exercises every code path in about a second each.
SCALES: dict[str, dict[str, dict[str, int]]] = {
    "paper": {
        "fig3a-n1000": {"num_nodes": 1000, "rounds": 40, "blocks_per_round": 60},
        "scale-n20k-sparse": {
            "num_nodes": 20000,
            "rounds": 4,
            "blocks_per_round": 50,
            "sample_size": 256,
        },
        "drain-2w-n150": {
            "num_nodes": 150,
            "rounds": 10,
            "blocks_per_round": 30,
            "repeats": 24,
            "status_calls": 60,
        },
    },
    "smoke": {
        "fig3a-n1000": {"num_nodes": 100, "rounds": 8, "blocks_per_round": 20},
        "scale-n20k-sparse": {
            "num_nodes": 800,
            "rounds": 2,
            "blocks_per_round": 20,
            "sample_size": 32,
        },
        "drain-2w-n150": {
            "num_nodes": 40,
            "rounds": 4,
            "blocks_per_round": 10,
            "repeats": 2,
            "status_calls": 5,
        },
    },
}

#: The drain's fleet: two workers (``nproc`` on the measured machine), each
#: task checkpointed every second round.
DRAIN_WORKERS = 2
CHECKPOINT_EVERY = 2

#: A drain that has not finished by then is reported as failed.
WORKER_TIMEOUT_S = 150.0


class Run:
    """State of one workload run: parameters, timings, checks, result."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.params = SCALES[args.scale][args.workload]
        self.work_dir = Path(args.work_dir)
        self.traced = args.mode == "traced"
        self.tracer = Tracer()
        self.recorder = MetricsRecorder()
        self.round_ms: list[float] = []
        self.result: dict[str, Any] = {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "mode": args.mode,
            "attempted": 0,
            "failed": 0,
            "checks": {},
        }

    def end_setup(self) -> bool:
        """Record set-up time; false when the run stops after set-up."""
        self.result["setup_s"] = time.monotonic() - self.args.spawned_at
        return self.args.mode != "setup"

    def operation(self, ok: bool) -> None:
        """Count one task, status call or correctness check."""
        self.result["attempted"] += 1
        self.result["failed"] += 0 if ok else 1

    def check(self, name: str, ok: bool) -> None:
        self.result["checks"][name] = bool(ok)
        self.operation(bool(ok))

    def time_rounds(self) -> None:
        """Time every Simulator.run_round call made in this process."""
        original = Simulator.run_round
        samples = self.round_ms

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                samples.append(1e3 * (time.perf_counter() - start))

        Simulator.run_round = timed

    @contextlib.contextmanager
    def tracing(self) -> Iterator[None]:
        """Per-layer spans around the timed phase of a traced run."""
        if not self.traced:
            yield
            return
        self.tracer.install_simulation()
        try:
            with use_recorder(self.recorder):
                yield
        finally:
            self.tracer.uninstall()

    def finish_records(self, records: list[TaskRecord]) -> None:
        """Task outcomes, subset gain, and the digests run.py compares."""
        for record in records:
            self.operation(record.ok)
        ok = [record for record in records if record.ok]
        if len(ok) == len(records):
            result = records_to_result(records)
            gains = {
                name: 100.0 * result.improvement(name)
                for name in result.curves
                if name.startswith("perigee-")
            }
            self.result["gains_pct"] = gains
            self.result["subset_gain_pct"] = gains["perigee-subset"]
            self.result["curve_median_ms"] = {
                name: curve.median_ms for name, curve in result.curves.items()
            }
        self.result["reach_digests"] = {
            record.key: hashlib.sha256(
                np.asarray(record.reach90 + record.reach50, dtype=float).tobytes()
            ).hexdigest()
            for record in ok
        }
        canonical = "\n".join(
            _record_bytes(record)
            for record in sorted(records, key=lambda record: record.key)
        )
        self.result["records_sha256"] = hashlib.sha256(
            canonical.encode("utf-8")
        ).hexdigest()

    def write(self) -> None:
        usage = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        )
        self.result["peak_rss_mb"] = usage / 1024.0
        Path(self.args.out).write_text(json.dumps(self.result), encoding="utf-8")


def _record_bytes(record: TaskRecord) -> str:
    """A record's persisted form minus its one timing field."""
    payload = record.to_dict()
    payload.pop("duration_s")
    return json.dumps(payload, sort_keys=True)


# ---------------------------------------------------------------------- #
# Simulation workloads: one grid through execute_sweep, serially in-process
# ---------------------------------------------------------------------- #
def _simulate(run: Run, spec) -> None:
    if not run.end_setup():
        return
    run.time_rounds()
    with run.tracing():
        start = time.perf_counter()
        records = execute_sweep(spec)
        run.result["wall_s"] = time.perf_counter() - start
    run.result["op_ms"] = run.round_ms
    run.finish_records(records)
    if run.traced:
        run.result["layers"] = derive_layers(run.recorder.snapshot())


def fig3a(run: Run) -> None:
    """Figure 3(a) at the paper's scale, as ``perigee-sim figure3a`` runs it."""
    params = run.params
    spec = figure3a_spec(
        num_nodes=params["num_nodes"],
        rounds=params["rounds"],
        repeats=1,
        seed=run.args.seed,
        blocks_per_round=params["blocks_per_round"],
    )
    _simulate(run, spec)
    if run.args.mode != "setup":
        medians = run.result.get("curve_median_ms")
        run.check(
            "ideal <= perigee-subset < random",
            medians is not None
            and medians["ideal"] <= medians["perigee-subset"] < medians["random"],
        )


def scale_sparse(run: Run) -> None:
    """One ``scaling`` rung on the on-demand latency backend."""
    params = run.params
    (spec,) = scaling_specs(
        num_nodes=params["num_nodes"],
        rounds=params["rounds"],
        repeats=1,
        seed=run.args.seed,
        blocks_per_round=params["blocks_per_round"],
        sizes=(params["num_nodes"],),
        latency_memory="sparse",
        evaluation={"mode": "sampled", "sample_size": params["sample_size"]},
    )
    _simulate(run, spec)


# ---------------------------------------------------------------------- #
# Cluster drain: submit, two worker processes, then a closed status loop
# ---------------------------------------------------------------------- #
def _spawn_workers(
    run: Run, store_dir: Path
) -> list[tuple[subprocess.Popen, float]]:
    """Start the drain's workers; returns each process with its spawn time."""
    module = "benchmarks.e2e.layers" if run.traced else "repro.cli"
    command = [
        sys.executable, "-m", module, "worker",
        "--store", str(store_dir), "--drain", "--poll-interval", "0.1",
    ]
    if run.traced:
        command.append("--telemetry")
    workers = []
    for index in range(DRAIN_WORKERS):
        log = (run.work_dir / f"worker-{index}.log").open("wb")
        with log:
            process = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT
            )
        workers.append((process, time.perf_counter()))
    return workers


def _wait_workers(
    workers: list[tuple[subprocess.Popen, float]],
) -> list[float]:
    """Exit times of the workers (polled, so each is exact to 10 ms)."""
    ends: dict[int, float] = {}
    deadline = time.perf_counter() + WORKER_TIMEOUT_S
    try:
        while len(ends) < len(workers):
            for index, (process, _) in enumerate(workers):
                if index not in ends and process.poll() is not None:
                    ends[index] = time.perf_counter()
            if time.perf_counter() > deadline:
                raise TimeoutError("drain workers did not finish")
            time.sleep(0.01)
    finally:
        for process, _ in workers:
            if process.poll() is None:
                process.kill()
            process.wait()
    return [ends[index] for index in range(len(workers))]


def drain(run: Run) -> None:
    """A flight-recorded, checkpointed grid drained by two worker processes."""
    params = run.params
    spec = replace(
        figure3a_spec(
            num_nodes=params["num_nodes"],
            rounds=params["rounds"],
            repeats=params["repeats"],
            seed=run.args.seed,
            blocks_per_round=params["blocks_per_round"],
        ),
        flight=True,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    store_dir = run.work_dir / "store"
    store = ResultStore(store_dir)
    start = time.perf_counter()
    WorkQueue(store).submit(spec)
    submit_s = time.perf_counter() - start
    if not run.end_setup():
        return

    start = time.perf_counter()
    workers = _spawn_workers(run, store_dir)
    ends = _wait_workers(workers)
    run.result["wall_s"] = max(ends) - start
    worker_wall_s = sum(end - spawned for (_, spawned), end in zip(workers, ends))
    for index, (process, _) in enumerate(workers):
        run.check(f"worker {index} exit code 0", process.returncode == 0)

    # Closed loop, one client: the next call starts when the previous one
    # returns.  It fills the rest of the --seconds window, with a floor of
    # status_calls so the 80th percentile has samples beyond it.
    tasks = spec.expand()
    status_ms = []
    if run.traced:
        run.tracer.install_status()
    try:
        while len(status_ms) < params["status_calls"] or (
            time.perf_counter() - start < run.args.seconds
        ):
            call_start = time.perf_counter()
            payload = fleet_status(store_dir)
            status_ms.append(1e3 * (time.perf_counter() - call_start))
            run.operation(
                payload["records"] == {"ok": len(tasks), "failed": 0}
                and payload["queue"] == {"pending": 0, "leased": 0}
            )
    finally:
        run.tracer.uninstall()
    run.result["op_ms"] = status_ms

    records = store.load()
    ordered = [records.get(task.content_hash()) for task in tasks]
    run.check("every task has a record", all(ordered))
    ordered = [record for record in ordered if record is not None]
    run.finish_records(ordered)
    for task in tasks:
        if task.repeat == 0:
            fleet = records.get(task.content_hash())
            serial = run_task(task)
            run.check(
                f"serial rerun identical: {task.protocol}",
                fleet is not None and _record_bytes(fleet) == _record_bytes(serial),
            )
    queue = WorkQueue(store)
    run.check("queue empty", not queue.pending_keys() and not queue.active_leases())
    run.check("no quarantined records", store.quarantined_lines() == 0)
    leftover = checkpoints_dir(store_dir)
    run.check(
        "no leftover checkpoints",
        not leftover.is_dir() or not any(leftover.iterdir()),
    )
    if run.traced:
        layers = derive_layers(
            merge_snapshots(load_worker_snapshots(store_dir)),
            samples=run.tracer.samples,
            status_calls=len(status_ms),
            worker_wall_s=worker_wall_s,
            submit_s=submit_s,
        )
        run.check("no IO operation gave up", layers["runtime.io_gave_up"] == 0)
        run.check(
            "no quarantine counted", layers["runtime.store_quarantined"] == 0
        )
        run.result["layers"] = layers


WORKLOADS = {
    "fig3a-n1000": fig3a,
    "scale-n20k-sparse": scale_sparse,
    "drain-2w-n150": drain,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), default="paper")
    parser.add_argument(
        "--mode", choices=("untraced", "traced", "setup"), required=True
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    os.makedirs(args.work_dir, exist_ok=True)
    run = Run(args)
    WORKLOADS[args.workload](run)
    run.write()
    return 0


if __name__ == "__main__":
    sys.exit(main())
