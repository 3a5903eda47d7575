"""Tests for distributed sweep execution (repro.runtime.cluster).

Covers the lease/heartbeat/reclaim machinery, multi-writer store shards,
crash-recovery fault paths (killed workers, duplicate completions,
truncated shards), and an end-to-end CLI acceptance run: a sweep drained by
two concurrent ``perigee-sim worker`` processes — one of them SIGKILLed
mid-sweep — aggregates byte-identically to a serial run.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.config import default_config
from repro.runtime import (
    ClusterExecutor,
    ParallelExecutor,
    ResultStore,
    SerialExecutor,
    Worker,
    WorkQueue,
    execute_sweep,
    records_to_result,
    run_task,
)
from repro.runtime.tasks import SweepSpec, TaskRecord

CONFIG = default_config(num_nodes=30, rounds=2, blocks_per_round=8, seed=11)

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


def make_spec(**overrides) -> SweepSpec:
    fields = dict(
        name="cluster-unit",
        config=CONFIG,
        protocols=("random", "perigee-subset"),
        repeats=2,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def age_file(path: Path, seconds: float = 3600.0) -> None:
    """Backdate a file's mtime (simulates a worker silent for `seconds`)."""
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


def assert_byte_identical(left_records, right_records, name="x") -> None:
    left = records_to_result(left_records, name=name)
    right = records_to_result(right_records, name=name)
    assert set(left.curves) == set(right.curves)
    for protocol in left.curves:
        assert left.curves[protocol].sorted_delays_ms.tobytes() == (
            right.curves[protocol].sorted_delays_ms.tobytes()
        )
        assert left.curves_50[protocol].sorted_delays_ms.tobytes() == (
            right.curves_50[protocol].sorted_delays_ms.tobytes()
        )


@pytest.fixture(scope="module")
def serial_records():
    return execute_sweep(make_spec(), executor=SerialExecutor())


class TestShardedStore:
    def test_writer_appends_to_private_shard(self, tmp_path, serial_records):
        store = ResultStore(tmp_path / "runs")
        shard = store.for_writer("w1")
        shard.append(serial_records[0])
        assert shard.results_path.name == "results-w1.jsonl"
        assert not (store.directory / "results.jsonl").exists()
        assert store.load()[serial_records[0].key].reach90 == (
            serial_records[0].reach90
        )

    def test_load_merges_main_file_and_shards(self, tmp_path, serial_records):
        store = ResultStore(tmp_path / "runs")
        store.append(serial_records[0])
        store.for_writer("w1").append(serial_records[1])
        store.for_writer("w2").append(serial_records[2])
        assert len(store.load()) == 3
        assert len(store.shard_paths()) == 3

    def test_ok_record_wins_over_failed_regardless_of_shard_order(
        self, tmp_path, serial_records
    ):
        record = serial_records[0]
        failed = TaskRecord(
            key=record.key, task=record.task, status="failed", error="boom"
        )
        store = ResultStore(tmp_path / "runs")
        # 'a' sorts before 'z': the failed record is read after the ok one.
        store.for_writer("a").append(record)
        store.for_writer("z").append(failed)
        assert store.load()[record.key].ok
        # And the ok record also wins when it is read first.
        other = ResultStore(tmp_path / "runs2")
        other.for_writer("a").append(failed)
        other.for_writer("z").append(record)
        assert other.load()[record.key].ok

    def test_failed_record_still_superseded_within_one_writer(
        self, tmp_path, serial_records
    ):
        record = serial_records[0]
        failed = TaskRecord(
            key=record.key, task=record.task, status="failed", error="boom"
        )
        store = ResultStore(tmp_path / "runs")
        store.append(failed)
        store.append(record)
        assert store.load()[record.key].ok

    def test_truncated_shard_line_is_tolerated(self, tmp_path, serial_records):
        store = ResultStore(tmp_path / "runs")
        shard = store.for_writer("w1")
        shard.append(serial_records[0])
        with shard.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "abc", "task"')  # mid-write kill
        assert len(store.load()) == 1

    def test_writer_id_is_sanitised(self, tmp_path):
        store = ResultStore(tmp_path / "runs").for_writer("we ird/../id")
        assert "/" not in store.results_path.name
        assert " " not in store.results_path.name
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "runs").for_writer("///")


class TestWorkQueue:
    def test_submit_skips_completed_tasks(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        execute_sweep(make_spec(protocols=("random",)), store=store)
        queue = WorkQueue(store)
        enqueued = queue.submit(make_spec())
        assert enqueued == 2  # only the perigee-subset cells are missing
        assert queue.submit(make_spec()) == 0  # second submit is a no-op
        assert len(queue.pending_keys()) == 2

    def test_claim_complete_cycle(self, tmp_path, serial_records):
        queue = WorkQueue(ResultStore(tmp_path / "runs"))
        spec = make_spec(repeats=1)
        queue.submit(spec)
        claim = queue.claim("w1")
        assert claim is not None
        assert claim.attempt == 1
        assert claim.lease_path.exists()
        payload = json.loads(claim.lease_path.read_text())
        assert payload["worker"] == "w1"
        record = run_task(claim.task)
        queue.complete(claim, record)
        assert not claim.lease_path.exists()
        assert not claim.task_path.exists()
        assert queue.store.load()[claim.key].ok

    def test_leased_tasks_are_not_double_claimed(self, tmp_path):
        queue = WorkQueue(ResultStore(tmp_path / "runs"))
        queue.submit(make_spec(repeats=1))  # 2 tasks
        first = queue.claim("w1")
        second = queue.claim("w2")
        assert first is not None and second is not None
        assert first.key != second.key
        assert queue.claim("w3") is None  # everything leased
        assert not queue.drained()  # ... but not drained

    def test_stale_lease_is_reclaimed_with_attempt_increment(self, tmp_path):
        queue = WorkQueue(ResultStore(tmp_path / "runs"), lease_ttl=5.0)
        queue.submit(make_spec(protocols=("random",), repeats=1))
        dead = queue.claim("w-dead")
        assert dead is not None
        age_file(dead.lease_path)
        reclaimed = queue.claim("w-live")
        assert reclaimed is not None
        assert reclaimed.key == dead.key
        assert reclaimed.attempt == 2
        assert json.loads(reclaimed.lease_path.read_text())["worker"] == "w-live"

    def test_fresh_lease_is_not_reclaimed(self, tmp_path):
        queue = WorkQueue(ResultStore(tmp_path / "runs"), lease_ttl=3600.0)
        queue.submit(make_spec(protocols=("random",), repeats=1))
        assert queue.claim("w1") is not None
        assert queue.claim("w2") is None

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        queue = WorkQueue(ResultStore(tmp_path / "runs"), lease_ttl=5.0)
        queue.submit(make_spec(protocols=("random",), repeats=1))
        claim = queue.claim("w1")
        age_file(claim.lease_path)
        queue.heartbeat(claim)  # refreshes mtime
        assert queue.claim("w2") is None

    def test_retries_exhausted_records_failure(self, tmp_path):
        queue = WorkQueue(
            ResultStore(tmp_path / "runs"), lease_ttl=5.0, max_attempts=2
        )
        queue.submit(make_spec(protocols=("random",), repeats=1))
        for _ in range(queue.max_attempts):
            claim = queue.claim("w-crash")
            assert claim is not None
            age_file(claim.lease_path)  # worker "dies" every time
        assert queue.claim("w-final") is None
        assert queue.drained()
        (record,) = queue.store.load().values()
        assert record.status == "failed"
        assert "max_attempts" in record.error

    def test_completed_task_is_garbage_collected_not_rerun(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        queue = WorkQueue(store)
        spec = make_spec(protocols=("random",), repeats=1)
        queue.submit(spec)
        # The task finished elsewhere (record appended) but the worker died
        # before retiring the queue entry.
        record = run_task(spec.expand()[0])
        store.append(record)
        assert queue.claim("w1") is None
        assert queue.drained()

    def test_release_makes_task_claimable_again(self, tmp_path):
        queue = WorkQueue(ResultStore(tmp_path / "runs"))
        queue.submit(make_spec(protocols=("random",), repeats=1))
        claim = queue.claim("w1")
        queue.release(claim)
        again = queue.claim("w2")
        assert again is not None
        assert again.key == claim.key

    def test_status_counts(self, tmp_path):
        queue = WorkQueue(ResultStore(tmp_path / "runs"), lease_ttl=60.0)
        queue.submit(make_spec())  # 4 tasks
        claim = queue.claim("w1")
        queue.register_worker("w1")
        record = run_task(claim.task)
        queue.complete(claim, record)
        queue.claim("w1")  # leave one leased
        status = queue.status()
        assert status.pending == 2
        assert status.leased == 1
        assert status.records_ok == 1
        assert status.records_failed == 0
        (worker,) = status.workers
        assert worker.worker_id == "w1"
        assert worker.alive

    def test_attempt_count_survives_claim_races(self, tmp_path):
        # A fresh claimer sneaking in between a reclaim and the re-lease
        # must not reset the attempt history: the bound derives from the
        # durable per-key reclaim counter, not the lease contents.
        queue = WorkQueue(
            ResultStore(tmp_path / "runs"), lease_ttl=5.0, max_attempts=2
        )
        queue.submit(make_spec(protocols=("random",), repeats=1))
        first = queue.claim("w1")
        age_file(first.lease_path)
        # Simulate the race: the reclaimer's bookkeeping ran (rename +
        # counter bump) but a different worker wins the fresh O_EXCL create.
        assert queue._reclaim_stale_lease(first.key, first.task_path, first.lease_path)
        racer = queue.claim("w-racer")
        assert racer is not None
        assert racer.attempt == 2  # not reset to 1
        age_file(racer.lease_path)
        assert queue.claim("w-final") is None  # third claim exceeds the cap
        (record,) = queue.store.load().values()
        assert record.status == "failed"

    def test_duplicate_live_worker_id_is_rejected(self, tmp_path):
        queue = WorkQueue(ResultStore(tmp_path / "runs"), lease_ttl=60.0)
        queue.workers_dir.mkdir(parents=True)
        impostor = queue.workers_dir / "w1.json"
        impostor.write_text(
            json.dumps({"worker": "w1", "host": "elsewhere", "pid": 1}),
            encoding="utf-8",
        )
        with pytest.raises(RuntimeError, match="already registered"):
            queue.register_worker("w1")
        # A stale entry (crashed worker) is taken over silently...
        age_file(impostor)
        queue.register_worker("w1")
        # ... and re-registering from the same process is always fine.
        queue.register_worker("w1")

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            WorkQueue(ResultStore(tmp_path), lease_ttl=0)
        with pytest.raises(ValueError):
            WorkQueue(ResultStore(tmp_path), max_attempts=0)


class TestWorkerDrain:
    def test_single_worker_drains_byte_identical(self, tmp_path, serial_records):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec()
        WorkQueue(store).submit(spec)
        worker = Worker(store, worker_id="w1", lease_ttl=30, poll_interval=0.05)
        completed = worker.run(drain=True)
        assert completed == spec.num_tasks
        merged = store.load()
        drained = [merged[t.content_hash()] for t in spec.expand()]
        assert_byte_identical(drained, serial_records)

    def test_two_concurrent_workers_drain_byte_identical(
        self, tmp_path, serial_records
    ):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec()
        WorkQueue(store).submit(spec)
        workers = [
            Worker(store, worker_id=f"w{i}", lease_ttl=30, poll_interval=0.05)
            for i in range(2)
        ]
        counts = [0, 0]

        def drain(index):
            counts[index] = workers[index].run(drain=True)

        threads = [
            threading.Thread(target=drain, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert sum(counts) == spec.num_tasks
        assert WorkQueue(store).drained()
        merged = store.load()
        drained = [merged[t.content_hash()] for t in spec.expand()]
        assert_byte_identical(drained, serial_records)

    def test_dead_workers_tasks_are_reclaimed(self, tmp_path, serial_records):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec()
        queue = WorkQueue(store, lease_ttl=5.0)
        queue.submit(spec)
        # A worker claims two tasks' worth of leases and dies silently.
        dead = queue.claim("w-dead")
        age_file(dead.lease_path)
        survivor = Worker(store, worker_id="w-live", lease_ttl=5.0, poll_interval=0.05)
        completed = survivor.run(drain=True)
        assert completed == spec.num_tasks
        merged = store.load()
        drained = [merged[t.content_hash()] for t in spec.expand()]
        assert_byte_identical(drained, serial_records)

    def test_duplicate_completion_is_idempotent(self, tmp_path, serial_records):
        # Two workers both complete the same task (reclaimed-but-alive case):
        # the store keeps one record per key and aggregation is unaffected.
        store = ResultStore(tmp_path / "runs")
        spec = make_spec(protocols=("random",), repeats=1)
        task = spec.expand()[0]
        record = run_task(task)
        store.for_writer("w1").append(record)
        store.for_writer("w2").append(record)
        merged = store.load()
        assert len(merged) == 1
        cached = execute_sweep(spec, store=store)
        assert all(r.cached for r in cached)
        assert cached[0].reach90 == record.reach90

    def test_worker_interrupted_mid_task_releases_claim(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec(protocols=("random",), repeats=1)
        WorkQueue(store).submit(spec)

        def interrupting_run(task):
            raise KeyboardInterrupt

        worker = Worker(store, worker_id="w1", run=interrupting_run)
        with pytest.raises(KeyboardInterrupt):
            worker.run(drain=True)
        # The claim was released, so another worker picks it up immediately.
        follow_up = WorkQueue(store).claim("w2")
        assert follow_up is not None
        assert follow_up.attempt == 1

    def test_max_tasks_bounds_the_loop(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        WorkQueue(store).submit(make_spec())
        worker = Worker(store, worker_id="w1", poll_interval=0.05)
        assert worker.run(drain=True, max_tasks=1) == 1
        assert not WorkQueue(store).drained()

    def test_resume_and_worker_compose_on_same_store(
        self, tmp_path, serial_records
    ):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec()
        # Half the grid completes via the classic resume path...
        execute_sweep(make_spec(protocols=("random",)), store=store)
        # ... the rest is enqueued and drained by a worker ...
        assert WorkQueue(store).submit(spec) == 2
        Worker(store, worker_id="w1", poll_interval=0.05).run(drain=True)
        # ... and a final resume serves everything from the store.
        records = execute_sweep(spec, store=store)
        assert all(record.cached for record in records)
        assert_byte_identical(records, serial_records)


class TestClusterExecutor:
    def test_execute_sweep_matches_serial(self, tmp_path, serial_records):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec()
        seen = []
        records = execute_sweep(
            spec,
            executor=ClusterExecutor(store, poll_interval=0.05),
            store=store,
            progress=lambda done, total, record: seen.append((done, total)),
        )
        assert_byte_identical(records, serial_records)
        assert seen == [(1, 4), (2, 4), (3, 4), (4, 4)]
        assert WorkQueue(store).drained()

    def test_cluster_run_is_resumable(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec()
        execute_sweep(spec, executor=ClusterExecutor(store), store=store)
        cached = execute_sweep(spec, store=store)
        assert all(record.cached for record in cached)

    def test_external_worker_cooperates(self, tmp_path, serial_records):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec()
        helper = Worker(store, worker_id="helper", poll_interval=0.02)
        stop = threading.Event()

        def help_until_stopped():
            while not stop.is_set():
                helper.run(drain=True)
                time.sleep(0.02)

        thread = threading.Thread(target=help_until_stopped, daemon=True)
        thread.start()
        try:
            records = execute_sweep(
                spec,
                executor=ClusterExecutor(store, poll_interval=0.05),
                store=store,
            )
        finally:
            stop.set()
            thread.join(timeout=30)
        assert_byte_identical(records, serial_records)

    def test_empty_task_list(self, tmp_path):
        assert ClusterExecutor(ResultStore(tmp_path / "runs")).map([]) == []

    def test_inline_worker_ignores_other_sweeps_tasks(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        # Another sweep's tasks sit undrained in the same store...
        foreign = make_spec(name="foreign", protocols=("geographic",), repeats=2)
        queue = WorkQueue(store)
        queue.submit(foreign)
        foreign_keys = set(queue.pending_keys())
        # ... and a cluster run of a different sweep must not execute them.
        spec = make_spec(protocols=("random",), repeats=1)
        seen = []
        records = execute_sweep(
            spec,
            executor=ClusterExecutor(store, poll_interval=0.05),
            store=store,
            progress=lambda done, total, record: seen.append((done, total)),
        )
        assert [record.ok for record in records] == [True]
        assert seen == [(1, 1)]
        assert set(queue.pending_keys()) == foreign_keys  # untouched
        assert foreign_keys.isdisjoint(store.load())

    def test_records_are_not_duplicated_into_main_file(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec()
        execute_sweep(
            spec, executor=ClusterExecutor(store, poll_interval=0.05), store=store
        )
        # Completions live in the worker shard only; the coordinator must
        # not append a second copy of every record to results.jsonl.
        assert not (store.directory / "results.jsonl").exists()
        total_lines = sum(
            1
            for path in store.shard_paths()
            for line in path.read_text().splitlines()
            if line.strip()
        )
        assert total_lines == spec.num_tasks

    def test_cluster_rejects_workers_count(self, tmp_path):
        from repro.analysis.experiments import run_experiment

        with pytest.raises(ValueError, match="worker"):
            run_experiment(
                "figure3a",
                num_nodes=30,
                rounds=2,
                store=str(tmp_path / "runs"),
                cluster=True,
                workers=2,
            )


class TestSpecPersistence:
    def test_each_sweep_gets_its_own_file(self, tmp_path):
        # Per-spec files mean concurrent savers have no shared index to
        # read-modify-write, so no submit can lose another's sweep.
        store = ResultStore(tmp_path / "runs")
        store.save_spec(make_spec(name="one"))
        store.save_spec(make_spec(name="two"))
        assert set(store.load_specs()) == {"one", "two"}
        assert {path.name for path in store.specs_dir.glob("*.json")} == {
            "one.json",
            "two.json",
        }

    def test_legacy_single_file_index_still_readable(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        legacy = make_spec(name="legacy-sweep")
        store.directory.mkdir(parents=True)
        store.sweeps_path.write_text(
            json.dumps({legacy.name: legacy.to_dict()}), encoding="utf-8"
        )
        store.save_spec(make_spec(name="modern"))
        specs = store.load_specs()
        assert set(specs) == {"legacy-sweep", "modern"}
        assert specs["legacy-sweep"] == legacy

    def test_per_sweep_file_overrides_legacy_entry(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        old = make_spec(name="unit", repeats=1)
        new = make_spec(name="unit", repeats=3)
        store.directory.mkdir(parents=True)
        store.sweeps_path.write_text(
            json.dumps({old.name: old.to_dict()}), encoding="utf-8"
        )
        store.save_spec(new)
        assert store.load_specs()["unit"] == new


class TestParallelExecutorInterrupt:
    def test_interrupt_persists_completed_records_and_resumes(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec()

        def interrupting_progress(done, total, record):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            execute_sweep(
                spec,
                executor=ParallelExecutor(workers=2),
                store=store,
                progress=interrupting_progress,
            )
        persisted = store.load()
        assert len(persisted) >= 1  # the record that triggered the interrupt
        assert all(record.ok for record in persisted.values())
        # The interrupted sweep resumes: only the missing cells execute.
        executed = []

        def counting_run(task):
            executed.append(task.content_hash())
            return run_task(task)

        records = execute_sweep(spec, store=store, run=counting_run)
        assert len(records) == spec.num_tasks
        assert all(record.ok for record in records)
        assert len(executed) == spec.num_tasks - len(persisted)

    def test_interrupt_without_store_still_raises(self):
        spec = make_spec(repeats=1)

        def interrupting_progress(done, total, record):
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            ParallelExecutor(workers=2).map(
                spec.expand(), progress=interrupting_progress
            )


def _cli(args, store, **kwargs):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        SRC_DIR if not existing else SRC_DIR + os.pathsep + existing
    )
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *args, "--store", str(store)],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        **kwargs,
    )


def _wait(process, timeout=300):
    output, _ = process.communicate(timeout=timeout)
    assert process.returncode == 0, output
    return output


SMOKE_ARGS = ["--num-nodes", "30", "--rounds", "2", "--seed", "3"]


def _smoke_spec():
    from repro.analysis.experiments import figure3a_spec

    return figure3a_spec(num_nodes=30, rounds=2, seed=3)


class TestEndToEndCLI:
    def test_submit_then_two_workers_match_serial(self, tmp_path):
        store = tmp_path / "runs"
        _wait(_cli(["submit", "figure3a", *SMOKE_ARGS], store))
        worker_args = [
            "worker", "--drain", "--lease-ttl", "30", "--poll-interval", "0.1",
        ]
        first = _cli(worker_args, store)
        second = _cli(worker_args, store)
        _wait(first)
        _wait(second)
        status = _wait(_cli(["status"], store))
        assert "0 pending, 0 leased" in status

        spec = _smoke_spec()
        clustered = execute_sweep(spec, store=ResultStore(store))
        assert all(record.cached for record in clustered)
        serial = execute_sweep(spec, executor=SerialExecutor())
        assert_byte_identical(clustered, serial)

    def test_killed_worker_resumes_from_checkpoint_byte_identical(
        self, tmp_path
    ):
        """Acceptance: SIGKILL a checkpointing worker mid-task; another
        worker reclaims the lease, resumes from the snapshot, and the final
        records are byte-identical to an uninterrupted serial run."""
        store = tmp_path / "runs"
        grid = ["--num-nodes", "40", "--rounds", "8", "--seed", "3"]
        _wait(_cli(["submit", "figure3a", *grid], store))

        victim = _cli(
            [
                "worker", "--lease-ttl", "2", "--poll-interval", "0.1",
                "--checkpoint-every", "1",
            ],
            store,
        )
        # Kill the victim as soon as it has durably checkpointed mid-task:
        # it can neither complete the task nor clear the snapshot.
        checkpoint_root = store / "checkpoints"
        deadline = time.time() + 120
        while time.time() < deadline:
            if checkpoint_root.is_dir() and any(
                checkpoint_root.glob("*/round-*.json")
            ):
                break
            time.sleep(0.02)
        else:
            victim.kill()
            pytest.fail("victim worker never wrote a checkpoint")
        victim.send_signal(signal.SIGKILL)
        victim.communicate(timeout=30)
        assert any(checkpoint_root.glob("*/round-*.json"))

        survivor = _cli(
            [
                "worker", "--drain", "--telemetry",
                "--lease-ttl", "2", "--poll-interval", "0.1",
                "--checkpoint-every", "1",
            ],
            store,
        )
        _wait(survivor)

        from repro.analysis.experiments import figure3a_spec

        spec = figure3a_spec(num_nodes=40, rounds=8, seed=3)
        clustered = execute_sweep(spec, store=ResultStore(store))
        assert all(record.cached for record in clustered)
        serial = execute_sweep(spec, executor=SerialExecutor())
        assert_byte_identical(clustered, serial)
        # The survivor resumed the reclaimed task from its snapshot rather
        # than restarting it (its metric shard records the resume) ...
        telemetry = "".join(
            path.read_text()
            for path in (store / "telemetry").glob("metrics-*.jsonl")
        )
        assert "task.resumed" in telemetry
        # ... and completed tasks leave no snapshots behind.
        assert not any(checkpoint_root.glob("*/round-*.json"))

    def test_worker_killed_mid_sweep_is_reclaimed(self, tmp_path):
        """Acceptance: kill one of two workers mid-sweep; the survivor
        reclaims its leases after expiry and the aggregate stays
        byte-identical to a serial run."""
        store = tmp_path / "runs"
        _wait(_cli(["submit", "figure3a", *SMOKE_ARGS], store))

        victim = _cli(
            ["worker", "--lease-ttl", "2", "--poll-interval", "0.1"], store
        )
        # Wait until the victim holds a lease (it is mid-task), then SIGKILL
        # it so it can neither complete nor release.
        leases = store / "cluster" / "leases"
        deadline = time.time() + 60
        while time.time() < deadline:
            if leases.is_dir() and any(leases.glob("*.lease")):
                break
            time.sleep(0.05)
        else:
            victim.kill()
            pytest.fail("victim worker never claimed a task")
        victim.send_signal(signal.SIGKILL)
        victim.communicate(timeout=30)

        survivor = _cli(
            [
                "worker", "--drain",
                "--lease-ttl", "2", "--poll-interval", "0.1",
            ],
            store,
        )
        _wait(survivor)

        spec = _smoke_spec()
        clustered = execute_sweep(spec, store=ResultStore(store))
        assert all(record.cached for record in clustered), (
            "survivor failed to reclaim the killed worker's tasks"
        )
        serial = execute_sweep(spec, executor=SerialExecutor())
        assert_byte_identical(clustered, serial)
