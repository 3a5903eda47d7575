"""Tests for the telemetry recorder, metric shards, and instrumentation.

The load-bearing guarantees:

* the default :class:`NullRecorder` makes every instrumented code path a
  no-op — simulation outputs are **bit-identical** with or without the
  instrumentation, because recorders never touch RNG state;
* span nesting/ordering is observable in trace mode;
* the shard-then-merge pipeline is deterministic: cumulative snapshots,
  max-``seq`` per worker, counters sum, span stats combine — independent
  of flush or read order;
* a worker running with ``telemetry=True`` flushes its metric shard.
"""

from __future__ import annotations

import json

import numpy as np

from repro.config import default_config
from repro.core.simulator import Simulator
from repro.protocols.registry import make_protocol
from repro.runtime.cluster.queue import WorkQueue
from repro.runtime.cluster.worker import Worker
from repro.runtime.executor import execute_sweep
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec
from repro.telemetry.recorder import (
    NULL_RECORDER,
    MetricsRecorder,
    NullRecorder,
    get_recorder,
    metric_key,
    split_key,
    use_recorder,
)
from repro.telemetry.shards import (
    ShardWriter,
    load_worker_snapshots,
    merge_snapshots,
    telemetry_dir,
)

CONFIG = default_config(num_nodes=40, rounds=3, blocks_per_round=8, seed=7)


def run_simulation(rounds: int = 3):
    simulator = Simulator(CONFIG, make_protocol("perigee-subset"))
    simulator.run(rounds)
    return sorted(
        (node, peer)
        for node in range(simulator.network.num_nodes)
        for peer in simulator.network.outgoing_neighbors(node)
    )


class TestMetricKeys:
    def test_key_roundtrip(self):
        key = metric_key("evaluate.delay", {"mode": "sampled", "a": "b"})
        assert key == "evaluate.delay|a=b|mode=sampled"
        assert split_key(key) == (
            "evaluate.delay",
            {"a": "b", "mode": "sampled"},
        )

    def test_untagged_key_is_bare_name(self):
        assert metric_key("round.count") == "round.count"
        assert split_key("round.count") == ("round.count", {})


class TestRecorder:
    def test_default_recorder_is_null(self):
        assert isinstance(get_recorder(), NullRecorder)
        assert get_recorder() is NULL_RECORDER

    def test_null_recorder_span_is_reusable_noop(self):
        recorder = NullRecorder()
        with recorder.span("a") as first:
            with recorder.span("b") as second:
                assert first is second  # one shared no-op instance
        recorder.incr("x")
        recorder.gauge("y", 1.0)

    def test_counters_and_gauges(self):
        recorder = MetricsRecorder()
        recorder.incr("tasks", 2, protocol="random")
        recorder.incr("tasks", 3, protocol="random")
        recorder.gauge("se_ms", 1.5)
        recorder.gauge("se_ms", 2.5)
        assert recorder.counter("tasks", protocol="random") == 5
        snapshot = recorder.snapshot()
        assert snapshot["counters"] == {"tasks|protocol=random": 5}
        assert snapshot["gauges"] == {"se_ms": 2.5}

    def test_span_aggregation(self):
        recorder = MetricsRecorder()
        for _ in range(4):
            with recorder.span("work", kind="t"):
                pass
        stats = recorder.span_stats("work", kind="t")
        assert stats is not None
        assert stats.count == 4
        assert stats.total_s >= stats.max_s >= stats.min_s >= 0.0

    def test_span_nesting_and_ordering_in_trace_mode(self):
        recorder = MetricsRecorder(trace=True)
        with recorder.span("outer"):
            with recorder.span("inner.first"):
                pass
            with recorder.span("inner.second"):
                pass
        # Completion order: children first, then the parent.
        assert [(e.name, e.depth) for e in recorder.trace] == [
            ("inner.first", 1),
            ("inner.second", 1),
            ("outer", 0),
        ]
        outer = recorder.trace[-1]
        inner = recorder.trace[0]
        assert inner.start_s >= outer.start_s
        assert outer.duration_s >= inner.duration_s

    def test_snapshot_is_json_serialisable(self):
        recorder = MetricsRecorder()
        with recorder.span("s", mode="exact"):
            pass
        recorder.incr("c")
        recorder.gauge("g", 0.5)
        json.dumps(recorder.snapshot())


class TestBitIdenticalOutputs:
    def test_simulation_identical_with_and_without_recorder(self):
        baseline = run_simulation()
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            instrumented = run_simulation()
        assert instrumented == baseline
        # The instrumented run actually exercised the round-loop spans.
        counters = recorder.snapshot()["counters"]
        assert counters["round.count"] == 3
        assert counters["round.edges_observed"] > 0
        assert recorder.span_stats("round.propagate").count == 3

    def test_sweep_records_identical_with_recorder(self):
        spec = SweepSpec(
            name="telemetry-unit",
            config=CONFIG,
            protocols=("random", "perigee-subset"),
            repeats=1,
        )
        plain = execute_sweep(spec)
        with use_recorder(MetricsRecorder()):
            instrumented = execute_sweep(spec)
        assert [record.key for record in plain] == [
            record.key for record in instrumented
        ]
        for left, right in zip(plain, instrumented):
            assert left.reach90 == right.reach90
            assert left.reach50 == right.reach50


class TestShards:
    def snapshot(self, counters, spans=None, gauges=None):
        return {
            "counters": dict(counters),
            "gauges": dict(gauges or {}),
            "spans": dict(spans or {}),
        }

    def test_flush_appends_cumulative_snapshots(self, tmp_path):
        recorder = MetricsRecorder()
        writer = ShardWriter(tmp_path, "w1")
        recorder.incr("c")
        writer.flush(recorder)
        recorder.incr("c")
        writer.flush(recorder)
        lines = writer.path.read_text().splitlines()
        assert len(lines) == 2
        payloads = [json.loads(line) for line in lines]
        assert [p["seq"] for p in payloads] == [1, 2]
        assert [p["counters"]["c"] for p in payloads] == [1, 2]
        latest = load_worker_snapshots(tmp_path)
        assert latest["w1"]["counters"]["c"] == 2

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        recorder = MetricsRecorder()
        recorder.incr("c", 5)
        writer = ShardWriter(tmp_path, "w1")
        writer.flush(recorder)
        with writer.path.open("a") as handle:
            handle.write('{"worker": "w1", "seq": 2, "counters": {"c"')
        latest = load_worker_snapshots(tmp_path)
        assert latest["w1"]["seq"] == 1
        assert latest["w1"]["counters"]["c"] == 5

    def test_merge_is_order_independent_and_deterministic(self):
        span_a = {"count": 2, "total_s": 1.0, "min_s": 0.2, "max_s": 0.8}
        span_b = {"count": 1, "total_s": 3.0, "min_s": 3.0, "max_s": 3.0}
        one = self.snapshot({"c": 1, "only.one": 7}, spans={"s": span_a})
        two = self.snapshot({"c": 2}, spans={"s": span_b, "t": span_a})
        merged = merge_snapshots({"w1": one, "w2": two})
        flipped = merge_snapshots({"w2": two, "w1": one})
        assert merged == flipped
        assert merged["counters"] == {"c": 3, "only.one": 7}
        assert merged["spans"]["s"] == {
            "count": 3,
            "total_s": 4.0,
            "min_s": 0.2,
            "max_s": 3.0,
        }
        assert merged["spans"]["t"] == span_a
        # Gauges are point-in-time per-worker values: never merged.
        assert "gauges" not in merged

    def test_worker_flushes_metric_shard(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = SweepSpec(
            name="telemetry-worker",
            config=CONFIG,
            protocols=("random",),
            repeats=2,
        )
        WorkQueue(store).submit(spec)
        worker = Worker(store, worker_id="tele-w", telemetry=True)
        completed = worker.run(drain=True)
        assert completed == 2
        assert telemetry_dir(store.directory).is_dir()
        latest = load_worker_snapshots(store.directory)
        assert set(latest) == {"tele-w"}
        counters = latest["tele-w"]["counters"]
        assert counters["worker.completions"] == 2
        assert counters["queue.claims"] == 2
        assert counters["task.ok|protocol=random"] == 2
        assert "task.run|experiment=telemetry-worker|protocol=random" in (
            latest["tele-w"]["spans"]
        )
        # The installed recorder is scoped to run(): afterwards the global
        # is back to the null recorder.
        assert get_recorder() is NULL_RECORDER

    def test_worker_without_telemetry_writes_no_shard(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = SweepSpec(
            name="telemetry-off",
            config=CONFIG,
            protocols=("random",),
            repeats=1,
        )
        WorkQueue(store).submit(spec)
        worker = Worker(store, worker_id="plain-w")
        assert worker.run(drain=True) == 1
        assert not telemetry_dir(store.directory).exists()


class TestEvaluatorInstrumentation:
    def test_evaluate_spans_tag_mode(self):
        from repro.metrics.evaluator import DelayEvaluator

        simulator = Simulator(CONFIG, make_protocol("random"))
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            evaluator = DelayEvaluator(mode="sampled", sample_size=16)
            evaluator.evaluate(
                simulator.engine,
                simulator.network,
                simulator.population.hash_power,
                target_fractions=(0.9,),
            )
        assert recorder.counter("evaluate.calls", mode="sampled") == 1
        assert recorder.counter("evaluate.sampled_draws") == 16
        assert recorder.span_stats("evaluate.delay", mode="sampled").count == 1
        gauges = recorder.snapshot()["gauges"]
        assert "evaluate.standard_error_ms" in gauges
        assert np.isfinite(gauges["evaluate.standard_error_ms"])
