"""Tests for the fault-injection plane and the hardened-IO layer.

Covers the seeded :class:`FaultPlan`/:class:`FaultPlane` machinery (rule
matching, hit counting, every action), the shared retry/backoff helper and
its telemetry contract, the atomic-write primitive, corruption quarantine in
the result store, heartbeat-thread failure detection in the worker, and —
via hypothesis — the promise that *arbitrary* byte corruption of queue
attempts files and checkpoint snapshots never crashes a worker.  Ends with
a small end-to-end chaos drain asserting byte-identity against serial.
"""

from __future__ import annotations

import errno
import json
import os
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import build_experiment_specs
from repro.config import default_config
from repro.runtime.atomics import atomic_write_bytes, atomic_write_json
from repro.runtime.chaos import (
    GUARANTEED_CRASH,
    GUARANTEED_TRANSIENT,
    comparable_record,
    incarnation_plan,
    run_chaos,
)
from repro.runtime.checkpoint import (
    latest_checkpoint,
    task_checkpoint_dir,
    write_checkpoint,
)
from repro.runtime.cluster.queue import WorkQueue
from repro.runtime.cluster.worker import Worker
from repro.runtime.faults import (
    FAULT_EXIT_CODE,
    FAULT_PLAN_ENV,
    NULL_FAULT_PLANE,
    FaultPlan,
    FaultPlane,
    FaultRule,
    get_fault_plane,
    install_fault_plane_from_env,
    set_fault_plane,
    use_fault_plane,
)
from repro.runtime.retry import NO_RETRY, RetryPolicy, retry
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec, TaskRecord
from repro.telemetry.recorder import MetricsRecorder, use_recorder

CONFIG = default_config(num_nodes=30, rounds=2, blocks_per_round=8, seed=11)

#: Zero-sleep variant of the default policy so fault-path tests stay fast.
FAST_RETRY = RetryPolicy(attempts=3, base_delay_s=0.0, jitter=0.0)


@pytest.fixture(autouse=True)
def _restore_fault_plane():
    """Every test leaves the process on the null plane."""
    yield
    set_fault_plane(NULL_FAULT_PLANE)


def make_task():
    spec = SweepSpec(
        name="faults-unit", config=CONFIG, protocols=("random",), repeats=1
    )
    return spec.expand()[0]


def make_record(task=None) -> TaskRecord:
    task = task if task is not None else make_task()
    return TaskRecord(
        key=task.content_hash(),
        task=task,
        status="ok",
        duration_s=1.25,
        reach90=[10.0, 20.0],
        reach50=[5.0, 15.0],
    )


class TestFaultRule:
    def test_validation_rejects_bad_rules(self):
        with pytest.raises(ValueError):
            FaultRule(point="x", action="explode")
        with pytest.raises(ValueError):
            FaultRule(point="x", action="crash", at=0)
        with pytest.raises(ValueError):
            FaultRule(point="x", action="crash", count=-1)
        with pytest.raises(ValueError):
            FaultRule(point="x", action="raise", errno_name="ENOSUCHERRNO")

    def test_matches_hit_window(self):
        rule = FaultRule(point="store.append", action="raise", at=2, count=2)
        assert not rule.matches("store.append", 1)
        assert rule.matches("store.append", 2)
        assert rule.matches("store.append", 3)
        assert not rule.matches("store.append", 4)
        assert not rule.matches("store.load", 2)

    def test_count_zero_fires_every_hit_from_at(self):
        rule = FaultRule(point="p", action="raise", at=3, count=0)
        assert not rule.matches("p", 2)
        assert all(rule.matches("p", hit) for hit in range(3, 10))

    def test_wildcard_prefix_point(self):
        rule = FaultRule(point="queue.*", action="raise")
        assert rule.matches("queue.heartbeat", 1)
        assert rule.matches("queue.attempts.read", 1)
        assert not rule.matches("store.append", 1)

    def test_errno_resolution(self):
        assert FaultRule(point="p", action="raise", errno_name="ENOSPC").errno == (
            errno.ENOSPC
        )


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan.randomized(seed=5)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_randomized_is_pure_function_of_seed(self):
        assert FaultPlan.randomized(seed=9) == FaultPlan.randomized(seed=9)
        assert FaultPlan.randomized(seed=9) != FaultPlan.randomized(seed=10)

    def test_randomized_delay_and_skew_target_heartbeat(self):
        plan = FaultPlan.randomized(
            seed=3, fires=32, actions=("delay", "skew")
        )
        assert plan.rules
        assert all(rule.point == "queue.heartbeat" for rule in plan.rules)


class TestFaultPlane:
    def test_null_plane_is_default_and_inert(self, tmp_path):
        assert get_fault_plane() is NULL_FAULT_PLANE
        assert NULL_FAULT_PLANE.enabled is False
        NULL_FAULT_PLANE.fire("anything", path=tmp_path / "f", data=b"x")

    def test_raise_fires_at_scheduled_hit_only(self):
        plan = FaultPlan(
            rules=(FaultRule(point="p", action="raise", at=2),)
        )
        plane = FaultPlane(plan)
        plane.fire("p")
        with pytest.raises(OSError) as excinfo:
            plane.fire("p")
        assert excinfo.value.errno == errno.EIO
        plane.fire("p")  # count=1: the window has passed
        assert plane.hits("p") == 3
        assert plane.fired == [("p", "raise", 2)]

    def test_fired_counter_is_recorded(self):
        plane = FaultPlane(
            FaultPlan(rules=(FaultRule(point="p", action="raise"),))
        )
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            with pytest.raises(OSError):
                plane.fire("p")
        counters = recorder.snapshot()["counters"]
        assert counters.get("fault.fired|action=raise|point=p") == 1

    def test_crash_exits_with_fault_code(self, monkeypatch):
        calls = []
        monkeypatch.setattr(os, "_exit", lambda code: calls.append(code))
        plane = FaultPlane(
            FaultPlan(rules=(FaultRule(point="p", action="crash"),))
        )
        plane.fire("p")
        assert calls == [FAULT_EXIT_CODE]

    def test_torn_writes_truncated_prefix_then_exits(
        self, tmp_path, monkeypatch
    ):
        calls = []
        monkeypatch.setattr(os, "_exit", lambda code: calls.append(code))
        target = tmp_path / "shard.jsonl"
        target.write_bytes(b"intact-line\n")
        plane = FaultPlane(
            FaultPlan(
                rules=(
                    FaultRule(point="p", action="torn", truncate_at=4),
                )
            )
        )
        plane.fire("p", path=target, data=b"next-line\n", append=True)
        assert calls == [FAULT_EXIT_CODE]
        assert target.read_bytes() == b"intact-line\nnext"

    def test_skew_shifts_mtime_backwards(self, tmp_path):
        target = tmp_path / "lease"
        target.write_bytes(b"")
        before = target.stat().st_mtime
        plane = FaultPlane(
            FaultPlan(
                rules=(FaultRule(point="p", action="skew", skew_s=500.0),)
            )
        )
        plane.fire("p", path=target)
        assert target.stat().st_mtime == pytest.approx(before - 500.0, abs=2.0)

    def test_delay_sleeps_for_configured_time(self, monkeypatch):
        slept = []
        monkeypatch.setattr(time, "sleep", lambda s: slept.append(s))
        plane = FaultPlane(
            FaultPlan(
                rules=(FaultRule(point="p", action="delay", delay_s=2.5),)
            )
        )
        plane.fire("p")
        assert slept == [2.5]


class TestEnvInstall:
    def test_unset_returns_current_plane(self):
        assert install_fault_plane_from_env(environ={}) is NULL_FAULT_PLANE

    def test_inline_json(self):
        plan = FaultPlan(rules=(FaultRule(point="p", action="raise"),), seed=4)
        plane = install_fault_plane_from_env(
            environ={FAULT_PLAN_ENV: plan.to_json()}
        )
        assert isinstance(plane, FaultPlane)
        assert plane.plan == plan
        assert get_fault_plane() is plane

    def test_plan_file_path(self, tmp_path):
        plan = FaultPlan(rules=(FaultRule(point="q", action="crash"),))
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        plane = install_fault_plane_from_env(
            environ={FAULT_PLAN_ENV: str(path)}
        )
        assert isinstance(plane, FaultPlane)
        assert plane.plan == plan

    def test_malformed_plan_raises_instead_of_running_clean(self):
        with pytest.raises((TypeError, ValueError)):
            install_fault_plane_from_env(
                environ={FAULT_PLAN_ENV: '{"rules": [{"point": "p"}]}'}
            )
        with pytest.raises(ValueError):
            install_fault_plane_from_env(
                environ={FAULT_PLAN_ENV: '{"rules": [{"point": "p", '
                '"action": "explode"}]}'}
            )


class TestRetry:
    def test_absorbs_transients_and_counts_them(self):
        failures = [OSError(errno.EIO, "flaky"), OSError(errno.EIO, "flaky")]

        def fn():
            if failures:
                raise failures.pop()
            return "done"

        recorder = MetricsRecorder()
        with use_recorder(recorder):
            assert retry(fn, FAST_RETRY, name="unit") == "done"
        counters = recorder.snapshot()["counters"]
        assert counters.get("io.retries|op=unit") == 2
        assert "io.gave_up|op=unit" not in counters

    def test_exhaustion_reraises_and_counts_gave_up(self):
        def fn():
            raise OSError(errno.ENOSPC, "full")

        recorder = MetricsRecorder()
        with use_recorder(recorder):
            with pytest.raises(OSError):
                retry(fn, FAST_RETRY, name="unit")
        counters = recorder.snapshot()["counters"]
        assert counters.get("io.retries|op=unit") == FAST_RETRY.attempts - 1
        assert counters.get("io.gave_up|op=unit") == 1

    def test_semantic_filesystem_outcomes_never_retried(self):
        calls = []

        def fn():
            calls.append(1)
            raise FileExistsError("lease race lost")

        recorder = MetricsRecorder()
        with use_recorder(recorder):
            with pytest.raises(FileExistsError):
                retry(fn, FAST_RETRY, name="unit")
        assert len(calls) == 1
        assert recorder.snapshot()["counters"] == {}

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(
            attempts=5, base_delay_s=0.1, max_delay_s=1.0, jitter=0.25
        )
        for attempt in range(4):
            first = policy.delay_s(attempt, "op")
            assert first == policy.delay_s(attempt, "op")
            raw = min(0.1 * 2.0**attempt, 1.0)
            assert raw * 0.75 <= first <= raw * 1.25
        # Different op names desynchronise.
        assert policy.delay_s(0, "a") != policy.delay_s(0, "b")

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        assert NO_RETRY.attempts == 1


class TestAtomics:
    def test_write_bytes_and_json(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json(target, {"b": 2, "a": 1})
        assert json.loads(target.read_text()) == {"a": 1, "b": 2}
        atomic_write_bytes(target, b"raw")
        assert target.read_bytes() == b"raw"
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_injected_transient_is_absorbed(self, tmp_path):
        plane = FaultPlane(
            FaultPlan(rules=(FaultRule(point="x.write", action="raise"),))
        )
        recorder = MetricsRecorder()
        target = tmp_path / "out.json"
        with use_fault_plane(plane), use_recorder(recorder):
            atomic_write_json(
                target, {"ok": True},
                fault_point="x.write",
                retry_policy=FAST_RETRY,
            )
        assert json.loads(target.read_text()) == {"ok": True}
        counters = recorder.snapshot()["counters"]
        assert counters.get("io.retries|op=x.write") == 1

    def test_exhausted_write_leaves_no_temp_litter(self, tmp_path):
        plane = FaultPlane(
            FaultPlan(
                rules=(
                    FaultRule(point="x.write", action="raise", count=0),
                )
            )
        )
        target = tmp_path / "out.json"
        with use_fault_plane(plane):
            with pytest.raises(OSError):
                atomic_write_json(
                    target, {"ok": True},
                    fault_point="x.write",
                    retry_policy=FAST_RETRY,
                )
        assert list(tmp_path.iterdir()) == []


class TestStoreQuarantine:
    def test_torn_trailing_line_is_tolerated_and_counted(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        record = make_record()
        store.append(record)
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "half-written')  # no newline: torn tail
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            loaded = store.load()
        assert set(loaded) == {record.key}
        counters = recorder.snapshot()["counters"]
        assert counters.get("store.torn_lines") == 1
        assert counters.get("store.quarantined") is None
        assert store.quarantined_lines() == 0

    def test_midfile_corruption_is_quarantined(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        first, second = make_record(), make_record(
            task=SweepSpec(
                name="faults-unit-b",
                config=CONFIG,
                protocols=("random",),
                repeats=1,
            ).expand()[0]
        )
        store.append(first)
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write("@@corrupt@@\n")
            handle.write('{"not": "a record"}\n')
        store.append(second)
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            loaded = store.load()
        assert set(loaded) == {first.key, second.key}
        counters = recorder.snapshot()["counters"]
        assert counters.get("store.quarantined") == 2
        assert store.quarantined_lines() == 2
        sidecars = list(store.quarantine_dir.glob("*.corrupt"))
        assert len(sidecars) == 1
        entries = [
            json.loads(line)
            for line in sidecars[0].read_text().splitlines()
            if line
        ]
        # The unparseable line keeps its 1-based number; a wrong-shape
        # payload (valid JSON, not a TaskRecord) is recorded with the
        # line-unknown sentinel 0.
        assert {entry["line"] for entry in entries} == {0, 2}

    def test_non_utf8_garbage_never_crashes_load(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        record = make_record()
        store.append(record)
        with store.results_path.open("ab") as handle:
            handle.write(b"\xff\xfe\x00binary\n")
        loaded = store.load()
        assert set(loaded) == {record.key}


class TestAttemptsFileCorruption:
    """Satellite: arbitrary corruption of the attempts file is survivable."""

    def _queue(self, tmp_path) -> WorkQueue:
        return WorkQueue(ResultStore(tmp_path / "runs"))

    def test_legacy_plain_int_format(self, tmp_path):
        queue = self._queue(tmp_path)
        path = queue._attempts_path("k")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("3", encoding="utf-8")
        assert queue._read_attempts("k") == (3, -1)

    def test_current_json_format(self, tmp_path):
        queue = self._queue(tmp_path)
        queue._attempts_path("k").parent.mkdir(parents=True, exist_ok=True)
        queue._write_attempts("k", 2, 7)
        assert queue._read_attempts("k") == (2, 7)

    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(garbage=st.binary(max_size=128))
    def test_arbitrary_bytes_degrade_to_safe_default(self, tmp_path, garbage):
        queue = self._queue(tmp_path)
        path = queue._attempts_path("k")
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(garbage)
        reclaims, seen_round = queue._read_attempts("k")
        assert isinstance(reclaims, int)
        assert isinstance(seen_round, int)

    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cut=st.integers(min_value=0, max_value=40))
    def test_truncated_json_degrades_to_safe_default(self, tmp_path, cut):
        queue = self._queue(tmp_path)
        path = queue._attempts_path("k")
        path.parent.mkdir(parents=True, exist_ok=True)
        full = json.dumps({"reclaims": 5, "round": 9}).encode()
        path.write_bytes(full[:cut])
        reclaims, seen_round = queue._read_attempts("k")
        assert (reclaims, seen_round) in {(5, 9), (0, -1)}


class TestCheckpointCorruption:
    """Satellite: arbitrary corruption of snapshots is survivable."""

    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(garbage=st.binary(max_size=256))
    def test_arbitrary_bytes_never_crash_resume(self, tmp_path, garbage):
        directory = task_checkpoint_dir(tmp_path, "task")
        directory.mkdir(parents=True, exist_ok=True)
        (directory / "round-00000001.json").write_bytes(garbage)
        result = latest_checkpoint(directory)
        assert result is None or isinstance(result, dict)

    @settings(
        deadline=None,
        max_examples=40,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(cut=st.integers(min_value=0, max_value=80))
    def test_truncated_snapshot_falls_back_to_older_one(self, tmp_path, cut):
        directory = task_checkpoint_dir(tmp_path, "task")
        older = {"rounds_completed": 1, "payload": "good"}
        write_checkpoint(directory, older)
        newer_path = directory / "round-00000002.json"
        full = json.dumps({"rounds_completed": 2, "payload": "new"}).encode()
        newer_path.write_bytes(full[:cut])
        result = latest_checkpoint(directory)
        assert result is not None
        assert result["rounds_completed"] in (1, 2)
        if result["rounds_completed"] == 1:
            assert result == older


class TestWorkerHeartbeatLiveness:
    def test_dead_heartbeat_releases_claim_and_stops_claiming(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        task = make_task()
        plane = FaultPlane(
            FaultPlan(
                rules=(
                    # Every heartbeat fails, exhausting the queue's retry
                    # budget each time: the beat thread must die, not hang.
                    FaultRule(point="queue.heartbeat", action="raise", count=0),
                )
            )
        )

        def slow_run(task):
            time.sleep(0.4)  # several heartbeat intervals at lease_ttl=0.2
            return make_record(task=task)

        recorder = MetricsRecorder()
        with use_fault_plane(plane), use_recorder(recorder):
            worker = Worker(
                store,
                worker_id="hb-unit",
                lease_ttl=0.2,
                poll_interval=0.05,
                run=slow_run,
            )
            worker.queue.enqueue(task)
            completed = worker.run(drain=True)
        assert completed == 0
        assert worker.heartbeat_failed is True
        counters = recorder.snapshot()["counters"]
        assert counters.get("worker.heartbeat_dead") == 1
        # The claim was released, not completed: no record in the store,
        # and the task is claimable again by a healthy worker.
        assert store.load() == {}
        healthy = Worker(
            store, worker_id="hb-healthy", lease_ttl=30.0, poll_interval=0.05
        )
        claim = healthy.queue.claim("hb-healthy")
        assert claim is not None
        assert claim.key == task.content_hash()

    def test_healthy_heartbeat_completes_normally(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        task = make_task()

        def slow_run(task):
            time.sleep(0.3)
            return make_record(task=task)

        worker = Worker(
            store,
            worker_id="hb-ok",
            lease_ttl=0.2,
            poll_interval=0.05,
            run=slow_run,
        )
        worker.queue.enqueue(task)
        assert worker.run(drain=True) == 1
        assert worker.heartbeat_failed is False
        assert set(store.load()) == {task.content_hash()}


class TestChaosHelpers:
    def test_incarnation_plan_is_deterministic(self):
        plan_a = incarnation_plan(7, 2, 3, ("crash", "raise"), 3, 0.5)
        plan_b = incarnation_plan(7, 2, 3, ("crash", "raise"), 3, 0.5)
        assert plan_a == plan_b
        assert plan_a.rules[0] == GUARANTEED_TRANSIENT
        assert plan_a != incarnation_plan(7, 3, 3, ("crash", "raise"), 3, 0.5)
        # Incarnation 0 (and only it) carries the pinned first-task crash.
        plan_zero = incarnation_plan(7, 0, 3, ("crash", "raise"), 3, 0.5)
        assert GUARANTEED_CRASH in plan_zero.rules
        assert GUARANTEED_CRASH not in plan_a.rules

    def test_comparable_record_excludes_wall_clock(self):
        record = make_record()
        payload = comparable_record(record)
        assert "duration_s" not in payload
        assert payload["key"] == record.key
        assert payload["reach90"] == record.reach90


class TestChaosEndToEnd:
    def test_seeded_drain_is_byte_identical_to_serial(self, tmp_path):
        report = run_chaos(
            tmp_path / "chaos",
            build_experiment_specs("figure5", num_nodes=25, rounds=2, seed=7),
            seed=7,
            workers=2,
            timeout_s=240.0,
        )
        assert report.identical, (
            report.mismatched_keys,
            report.missing_keys,
        )
        assert report.tasks > 0
        assert report.incarnations >= 2
        assert report.io_gave_up == 0 or report.identical
