"""Benchmarks of the distributed cluster runtime (repro.runtime.cluster).

Two measurements, each emitting one JSON record line (prefixed
``BENCH-JSON``) so fleet-sizing data can be scraped from CI logs:

* wall-clock of the same sweep drained by 1, 2, and 4 concurrent
  ``perigee-sim worker`` processes (real subprocesses, like a deployment),
  with the 4-worker fleet required to beat one worker by >= 1.5x — the
  lease machinery must not eat the parallelism (skipped below 4 cores);
* per-task lease overhead: claim + heartbeat + complete cycle time with an
  instant run function, i.e. the queue's fixed tax on every cell.

Sweep scale follows the shared ``PERIGEE_BENCH_*`` knobs, capped to keep
the three fleet runs laptop-sized.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import default_config
from repro.runtime.cluster.queue import WorkQueue
from repro.runtime.cluster.worker import Worker
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec, TaskRecord

from benchmarks.conftest import emit_bench_json, print_banner

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")
FLEET_SIZES = (1, 2, 4)
MAX_FLEET = max(FLEET_SIZES)


def _bench_spec(scale, repeats: int) -> SweepSpec:
    config = default_config(
        num_nodes=min(scale.num_nodes, 150),
        rounds=min(scale.rounds, 10),
        seed=scale.seed,
        blocks_per_round=min(scale.blocks_per_round, 30),
        hash_power_distribution="uniform",
    )
    return SweepSpec(
        name="bench-cluster",
        config=config,
        protocols=("random", "geographic", "perigee-subset", "perigee-vanilla"),
        repeats=repeats,
    )


def _spawn_worker(store: Path) -> subprocess.Popen:
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        SRC_DIR if not existing else SRC_DIR + os.pathsep + existing
    )
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "worker",
            "--store", str(store), "--drain",
            "--lease-ttl", "60", "--poll-interval", "0.1",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


@pytest.mark.skipif(
    (os.cpu_count() or 1) < MAX_FLEET,
    reason=f"fleet speedup needs >= {MAX_FLEET} CPU cores",
)
def test_bench_cluster_fleet_speedup(tmp_path, scale):
    """1 -> 2 -> 4 worker processes drain the same sweep ever faster."""
    spec = _bench_spec(scale, repeats=max(scale.repeats, 2))
    print_banner(
        f"cluster fleet: {spec.num_tasks} tasks, n={spec.config.num_nodes}, "
        f"fleets of {FLEET_SIZES}"
    )
    wall_clock: dict[int, float] = {}
    for fleet in FLEET_SIZES:
        store = tmp_path / f"fleet-{fleet}"
        WorkQueue(ResultStore(store)).submit(spec)
        start = time.perf_counter()
        workers = [_spawn_worker(store) for _ in range(fleet)]
        for process in workers:
            process.wait(timeout=3600)
            assert process.returncode == 0
        wall_clock[fleet] = time.perf_counter() - start
        merged = ResultStore(store).load()
        assert len(merged) == spec.num_tasks
        assert all(record.ok for record in merged.values())
        print(f"  {fleet} worker(s): {wall_clock[fleet]:.1f}s")

    speedup = wall_clock[1] / wall_clock[MAX_FLEET]
    record = {
        "benchmark": "cluster_fleet_speedup",
        "tasks": spec.num_tasks,
        "num_nodes": spec.config.num_nodes,
        "wall_clock_s": {str(k): round(v, 3) for k, v in wall_clock.items()},
        "speedup_4v1": round(speedup, 3),
    }
    emit_bench_json(record)
    assert speedup >= 1.5, f"expected >= 1.5x with {MAX_FLEET} workers, got {speedup:.2f}x"


def test_bench_lease_overhead_per_task(tmp_path):
    """Fixed queue tax per task: claim + complete with an instant run."""
    tasks = 50
    config = default_config(num_nodes=10, rounds=1, blocks_per_round=1, seed=0)
    spec = SweepSpec(
        name="bench-lease", config=config, protocols=("random",), repeats=tasks
    )

    def instant_run(task) -> TaskRecord:
        return TaskRecord(
            key=task.content_hash(),
            task=task,
            status="ok",
            reach90=[1.0],
            reach50=[1.0],
        )

    store = ResultStore(tmp_path / "lease-bench")
    WorkQueue(store).submit(spec)
    worker = Worker(
        store, worker_id="bench", poll_interval=0.05, run=instant_run
    )
    print_banner(f"cluster lease overhead: {tasks} instant tasks")
    start = time.perf_counter()
    completed = worker.run(drain=True)
    elapsed = time.perf_counter() - start
    assert completed == tasks
    per_task_ms = elapsed / tasks * 1000.0
    record = {
        "benchmark": "cluster_lease_overhead",
        "tasks": tasks,
        "total_s": round(elapsed, 3),
        "per_task_ms": round(per_task_ms, 3),
    }
    emit_bench_json(record)
    # The lease cycle is a handful of tiny filesystem ops; anything beyond
    # a quarter second per task would dominate real simulation cells.
    assert per_task_ms < 250.0
