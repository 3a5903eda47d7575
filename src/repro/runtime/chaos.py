"""Chaos harness: drain a real sweep under a seeded fault schedule.

This is the closed-loop proof behind the fault-injection plane
(:mod:`repro.runtime.faults`): it runs the **same experiment twice** —

* a *serial arm*: in-process, fault-free, via
  :class:`~repro.runtime.executor.SerialExecutor` — the ground truth;
* a *fault arm*: submitted to a store-backed work queue and drained by a
  small fleet of ``perigee-sim worker`` subprocesses, each armed with a
  seeded :class:`~repro.runtime.faults.FaultPlan` through the
  ``PERIGEE_FAULT_PLAN`` environment variable —

and then asserts that every per-task record (reach curves, status,
histograms — everything except wall-clock ``duration_s``) is
**byte-identical** across the two arms.  Workers killed by ``crash``/
``torn`` rules exit with :data:`~repro.runtime.faults.FAULT_EXIT_CODE` and
are respawned as fresh *incarnations*, each with a fault plan derived
deterministically from ``(seed, incarnation)``; past a bounded incarnation
budget respawns run clean, so the drain always terminates.

Determinism contract: the fault *schedule* is a pure function of the seed
(same seed ⇒ same plans in the same incarnation order).  Fault *timing*
relative to the task stream depends on OS scheduling, so what is asserted
reproducible is the schedule and the end state — byte-identical records,
a drained queue — not the interleaving.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.runtime.cluster.queue import WorkQueue
from repro.runtime.executor import SerialExecutor, execute_sweep
from repro.runtime.faults import (
    FAULT_EXIT_CODE,
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultRule,
)
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec, TaskRecord, canonical_json
from repro.telemetry.shards import load_worker_snapshots, merge_snapshots

#: Fault actions a chaos drain arms by default.  ``skew`` is excluded: it
#: backdates lease mtimes to force premature reclaims, which is a useful
#: stressor but makes *wall-clock* termination of small smoke drains less
#: predictable; pass ``actions=(..., "skew")`` to include it.
DEFAULT_CHAOS_ACTIONS = ("crash", "torn", "raise", "delay")

LogFn = Callable[[str], None]


#: Every armed incarnation carries this rule in addition to its randomized
#: schedule: one transient EIO on the first result append.  Crash/torn rules
#: are process-fatal, so a purely random schedule can kill every armed
#: worker before its telemetry flushes — leaving the drain with nothing
#: observable to assert on.  A guaranteed early *absorbed* fault makes any
#: armed incarnation that completes at least one task record a non-zero
#: ``io.retries``, which is exactly what the CI chaos-smoke arm checks.
GUARANTEED_TRANSIENT = FaultRule(
    point="store.append", action="raise", at=1, count=1, errno_name="EIO"
)

#: Incarnation 0 additionally dies on its first claimed task.  Whether a
#: *randomized* crash rule fires depends on which worker's hit counters
#: reach the rule's ``at`` — a function of task scheduling, not of the
#: seed — so a drain that must demonstrably exercise crash-recovery (the
#: CI chaos-smoke asserts ``crash_exits > 0``) pins one crash to the one
#: event that deterministically happens: the first worker executing its
#: first task.
GUARANTEED_CRASH = FaultRule(point="worker.execute", action="crash", at=1)


def incarnation_plan(
    seed: int,
    incarnation: int,
    fires: int,
    actions: Sequence[str],
    max_at: int,
    delay_s: float,
) -> FaultPlan:
    """The fault plan one worker incarnation is armed with."""
    randomized = FaultPlan.randomized(
        seed=incarnation_seed(seed, incarnation),
        fires=fires,
        actions=tuple(actions),
        max_at=max_at,
        delay_s=delay_s,
    )
    guaranteed = (GUARANTEED_TRANSIENT,)
    if incarnation == 0 and "crash" in actions:
        guaranteed += (GUARANTEED_CRASH,)
    return FaultPlan(
        rules=guaranteed + randomized.rules,
        seed=randomized.seed,
    )


def incarnation_seed(seed: int, incarnation: int) -> int:
    """Deterministic per-incarnation plan seed, stable across platforms."""
    digest = hashlib.sha256(f"chaos:{seed}:{incarnation}".encode()).hexdigest()
    return int(digest[:12], 16)


def comparable_record(record: TaskRecord) -> dict[str, Any]:
    """A record's identity-relevant payload: everything but wall-clock."""
    payload = record.to_dict()
    payload.pop("duration_s", None)
    return payload


@dataclass
class ChaosReport:
    """Outcome of one chaos drain, JSON-serialisable for CI assertions.

    ``experiment`` names the drained sweeps, comma-separated.
    """

    experiment: str
    seed: int
    tasks: int
    identical: bool
    mismatched_keys: list[str] = field(default_factory=list)
    missing_keys: list[str] = field(default_factory=list)
    incarnations: int = 0
    crash_exits: int = 0
    clean_exits: int = 0
    other_exits: int = 0
    fault_fired: dict[str, float] = field(default_factory=dict)
    io_retries: float = 0.0
    io_gave_up: float = 0.0
    quarantined: int = 0
    duration_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "seed": self.seed,
            "tasks": self.tasks,
            "identical": self.identical,
            "mismatched_keys": self.mismatched_keys,
            "missing_keys": self.missing_keys,
            "incarnations": self.incarnations,
            "crash_exits": self.crash_exits,
            "clean_exits": self.clean_exits,
            "other_exits": self.other_exits,
            "fault_fired": self.fault_fired,
            "io_retries": self.io_retries,
            "io_gave_up": self.io_gave_up,
            "quarantined": self.quarantined,
            "duration_s": self.duration_s,
        }


def _spawn_worker(
    store_dir: Path,
    incarnation: int,
    plan: FaultPlan | None,
    lease_ttl: float,
    max_attempts: int,
    log_dir: Path,
) -> tuple[subprocess.Popen, Any]:
    env = dict(os.environ)
    env.pop(FAULT_PLAN_ENV, None)
    if plan is not None:
        env[FAULT_PLAN_ENV] = plan.to_json()
    log_dir.mkdir(parents=True, exist_ok=True)
    log = (log_dir / f"incarnation-{incarnation:03d}.log").open("wb")
    process = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--store",
            str(store_dir),
            "--drain",
            "--telemetry",
            "--worker-id",
            f"chaos-{incarnation:03d}",
            "--lease-ttl",
            str(lease_ttl),
            "--max-attempts",
            str(max_attempts),
            "--poll-interval",
            "0.1",
        ],
        env=env,
        stdout=log,
        stderr=subprocess.STDOUT,
    )
    return process, log


def run_chaos(
    root: str | os.PathLike,
    specs: Sequence[SweepSpec],
    seed: int = 0,
    workers: int = 2,
    fires: int = 3,
    max_at: int = 3,
    actions: Sequence[str] = DEFAULT_CHAOS_ACTIONS,
    lease_ttl: float = 4.0,
    max_attempts: int = 8,
    max_fault_incarnations: int = 12,
    timeout_s: float = 600.0,
    log: LogFn | None = None,
) -> ChaosReport:
    """Drain ``specs`` in a serial and a fault arm; see module docstring.

    ``seed`` seeds the fault schedule (the sweep's own seed is in its
    specs).  ``root`` gains two store directories: ``serial/`` (clean
    ground truth) and ``chaos/`` (the queue the armed fleet drains, plus
    per-incarnation worker logs under ``chaos/chaos-logs/``).  Faulty incarnations past
    ``max_fault_incarnations`` — and every respawn once the budget is spent
    — run clean, bounding how long the schedule can stall the drain;
    ``timeout_s`` is the hard stop (raises ``RuntimeError``).

    Raises ``ValueError`` for a bad fault-plan parameterisation before any
    work runs.
    """
    emit: LogFn = log if log is not None else (lambda message: None)
    started = time.monotonic()
    root = Path(root)
    experiment = ",".join(spec.name for spec in specs)
    # Validate the schedule parameterisation before spending any compute.
    for incarnation in range(max_fault_incarnations):
        incarnation_plan(
            seed, incarnation, fires, actions, max_at, min(1.0, lease_ttl / 4.0)
        )

    # ---------------------------------------------------------------- #
    # Serial arm: fault-free ground truth, in-process.
    # ---------------------------------------------------------------- #
    emit(f"serial arm: {experiment} into {root / 'serial'}")
    serial_store = ResultStore(root / "serial")
    serial_records: dict[str, TaskRecord] = {}
    for spec in specs:
        for record in execute_sweep(
            spec, executor=SerialExecutor(), store=serial_store
        ):
            serial_records[record.key] = record
    emit(f"serial arm: {len(serial_records)} task(s) done")

    # ---------------------------------------------------------------- #
    # Fault arm: queue + armed worker fleet.
    # ---------------------------------------------------------------- #
    chaos_store = ResultStore(root / "chaos")
    queue = WorkQueue(
        chaos_store, lease_ttl=lease_ttl, max_attempts=max_attempts
    )
    queued = sum(queue.submit(spec) for spec in specs)
    emit(f"fault arm: {queued} task(s) queued, {workers} worker(s)")

    log_dir = chaos_store.directory / "chaos-logs"
    fleet: list[tuple[subprocess.Popen, Any]] = []
    incarnations = 0
    crash_exits = clean_exits = other_exits = 0

    def spawn() -> None:
        nonlocal incarnations
        plan = (
            incarnation_plan(
                seed,
                incarnations,
                fires,
                actions,
                max_at,
                min(1.0, lease_ttl / 4.0),
            )
            if incarnations < max_fault_incarnations
            else None
        )
        armed = "armed" if plan is not None else "clean"
        emit(f"fault arm: spawning incarnation {incarnations} ({armed})")
        fleet.append(
            _spawn_worker(
                chaos_store.directory,
                incarnations,
                plan,
                lease_ttl,
                max_attempts,
                log_dir,
            )
        )
        incarnations += 1

    try:
        for _ in range(workers):
            spawn()
        while True:
            if time.monotonic() - started > timeout_s:
                raise RuntimeError(
                    f"chaos drain timed out after {timeout_s:.0f}s "
                    f"({incarnations} incarnation(s) spawned)"
                )
            alive: list[tuple[subprocess.Popen, Any]] = []
            for process, handle in fleet:
                code = process.poll()
                if code is None:
                    alive.append((process, handle))
                    continue
                handle.close()
                if code == FAULT_EXIT_CODE:
                    crash_exits += 1
                elif code == 0:
                    clean_exits += 1
                else:
                    other_exits += 1
                emit(f"fault arm: worker exited with code {code}")
            fleet[:] = alive
            drained = queue.drained()
            if drained and not fleet:
                break
            if not drained:
                while len(fleet) < workers:
                    spawn()
            time.sleep(0.1)
    finally:
        for process, handle in fleet:
            process.kill()
            process.wait()
            handle.close()

    # ---------------------------------------------------------------- #
    # Compare and report.
    # ---------------------------------------------------------------- #
    fault_records = chaos_store.load()
    mismatched: list[str] = []
    missing: list[str] = []
    for key, record in serial_records.items():
        other = fault_records.get(key)
        if other is None:
            missing.append(key)
        elif canonical_json(comparable_record(record)) != canonical_json(
            comparable_record(other)
        ):
            mismatched.append(key)
    merged = merge_snapshots(load_worker_snapshots(chaos_store.directory))
    counters = merged.get("counters", {})

    def counter_total(name: str) -> float:
        # Counters are flat `name|tag=value` keys; sum across all taggings.
        return float(
            sum(
                value
                for key, value in counters.items()
                if key == name or key.startswith(name + "|")
            )
        )

    fired = {
        name: value
        for name, value in sorted(counters.items())
        if name.startswith("fault.fired")
    }
    report = ChaosReport(
        experiment=experiment,
        seed=seed,
        tasks=len(serial_records),
        identical=not mismatched and not missing,
        mismatched_keys=sorted(mismatched),
        missing_keys=sorted(missing),
        incarnations=incarnations,
        crash_exits=crash_exits,
        clean_exits=clean_exits,
        other_exits=other_exits,
        fault_fired=fired,
        io_retries=counter_total("io.retries"),
        io_gave_up=counter_total("io.gave_up"),
        quarantined=chaos_store.quarantined_lines(),
        duration_s=time.monotonic() - started,
    )
    emit(
        "chaos drain: identical={} incarnations={} crashes={} retries={}".format(
            report.identical,
            report.incarnations,
            report.crash_exits,
            int(report.io_retries),
        )
    )
    return report
