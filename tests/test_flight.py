"""Tests for the flight recorder: artifacts, bit-identity, CLI + serve.

The recorder's contract mirrors the telemetry ``NullRecorder``: off by
default, and — when on — a pure *reader* of simulation state, so a
flight-recorded run must produce bit-identical results and store records.
These tests pin that contract, the on-disk artifact layout (including the
crashed-run prefix guarantee), the ``perigee-sim inspect``/``trace``
round-trips, the ``/runs`` HTTP endpoints, and the structural validity of
the Chrome-trace export.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.config import default_config
from repro.core.simulator import Simulator
from repro.protocols.registry import make_protocol
from repro.runtime import ResultStore, Worker, WorkQueue, execute_sweep
from repro.runtime.executor import run_task
from repro.runtime.tasks import SweepSpec, Task
from repro.telemetry.chrome import (
    chrome_trace_events,
    chrome_trace_payload,
    write_chrome_trace,
)
from repro.telemetry.flight import (
    NULL_FLIGHT_RECORDER,
    FlightRecorder,
    flight_report,
    flight_run_dir,
    get_flight_recorder,
    list_runs,
    load_run,
    render_flight_report,
    resolve_run_dir,
    use_flight_recorder,
)
from repro.telemetry.recorder import MetricsRecorder, use_recorder
from repro.telemetry.serve import build_server

CONFIG = default_config(num_nodes=30, rounds=3, blocks_per_round=8, seed=11)


def make_spec(**overrides) -> SweepSpec:
    fields = dict(
        name="flight-unit",
        config=CONFIG,
        protocols=("perigee-subset",),
        repeats=1,
        flight=True,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def make_task(**overrides) -> Task:
    (task,) = list(make_spec(**overrides))
    return task


def run_recorded(directory, rounds=3, **recorder_kwargs) -> FlightRecorder:
    """Run a fresh simulator with a live flight recorder; do not close."""
    simulator = Simulator(CONFIG, make_protocol("perigee-subset"))
    flight = FlightRecorder(directory, **recorder_kwargs)
    with use_flight_recorder(flight):
        for round_index in range(rounds):
            simulator.run_round(round_index)
    return flight


class TestNullDefault:
    def test_default_is_null_and_disabled(self):
        assert get_flight_recorder() is NULL_FLIGHT_RECORDER
        assert not NULL_FLIGHT_RECORDER.enabled

    def test_null_hooks_are_noops(self):
        with NULL_FLIGHT_RECORDER as flight:
            flight.record_rewires([1], [0], [1])
            flight.record_scores(np.zeros(3))
            flight.on_round(None, 0)
            flight.record_final(reach90=[1.0])


class TestRecorderArtifacts:
    def test_round_rows_and_cadence(self, tmp_path):
        flight = run_recorded(
            tmp_path / "run", rounds=4, topology_every=2, delay_every=2
        )
        flight.close()
        run = load_run(tmp_path / "run")
        assert [row["round"] for row in run["rounds"]] == [0, 1, 2, 3]
        for row in run["rounds"]:
            rewire = row["rewire"]
            assert rewire["nodes_updated"] == CONFIG.num_nodes
            assert len(rewire["node"]) == CONFIG.num_nodes
            assert rewire["edges_dropped"] == sum(rewire["dropped"])
            assert rewire["edges_added"] == sum(rewire["added"])
            assert row["scores"]["count"] > 0
        # topology_every=2 -> rounds 0 and 2; delay_every=2 -> rounds 1 and 3.
        assert [r["round"] for r in run["rounds"] if "topology" in r] == [0, 2]
        assert [r["round"] for r in run["rounds"] if "delay" in r] == [1, 3]

    def test_zero_cadence_disables(self, tmp_path):
        flight = run_recorded(
            tmp_path / "run", rounds=2, topology_every=0, delay_every=0
        )
        flight.close()
        run = load_run(tmp_path / "run")
        assert not any("topology" in row for row in run["rounds"])
        assert not any("delay" in row for row in run["rounds"])

    def test_negative_cadence_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path / "run", topology_every=-1)
        with pytest.raises(ValueError):
            FlightRecorder(tmp_path / "run2", delay_every=-1)

    def test_misaligned_rewire_buffers_rejected(self, tmp_path):
        flight = FlightRecorder(tmp_path / "run")
        with pytest.raises(ValueError):
            flight.record_rewires([1, 2], [0], [1, 1])

    def test_close_writes_trace_and_summary(self, tmp_path):
        flight = run_recorded(tmp_path / "run", rounds=3, delay_every=1)
        flight.record_final(reach90=[10.0, 20.0, 30.0], reach50=[5.0])
        flight.close()
        flight.close()  # idempotent
        with np.load(tmp_path / "run" / "trace.npz") as trace:
            assert trace["round"].tolist() == [0.0, 1.0, 2.0]
            for name in (
                "nodes_updated",
                "edges_dropped",
                "score_p90",
                "delay_p90",
                "topo_mean_edge_latency_ms",
            ):
                assert trace[name].shape == (3,)
        summary = json.loads(
            (tmp_path / "run" / "summary.json").read_text()
        )
        assert summary["rounds_recorded"] == 3
        assert summary["final"]["reach90"]["count"] == 3
        assert summary["final"]["reach50"]["p50"] == 5.0

    def test_crashed_run_keeps_prefix(self, tmp_path):
        run_recorded(tmp_path / "run", rounds=2)  # never closed
        run = load_run(tmp_path / "run")
        assert len(run["rounds"]) == 2
        assert run["summary"] is None
        report = flight_report(tmp_path / "run")
        assert report["rounds_recorded"] == 2
        assert not report["closed"]
        assert "did not close cleanly" in render_flight_report(report)

    def test_missing_artifact_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "nothing")

    def test_rows_are_strict_json(self, tmp_path):
        flight = run_recorded(tmp_path / "run", rounds=2, delay_every=1)
        flight.close()

        def reject(token):  # NaN/Infinity tokens must never appear
            raise AssertionError(f"non-strict JSON token {token!r}")

        for line in (tmp_path / "run" / "rounds.jsonl").read_text().splitlines():
            json.loads(line, parse_constant=reject)
        report = flight_report(tmp_path / "run")
        json.loads(json.dumps(report, allow_nan=False))

    def test_engine_entry_holds_graph_cache_counters(self, tmp_path):
        flight = run_recorded(tmp_path / "run", rounds=2)
        flight.close()
        report = flight_report(tmp_path / "run")
        assert sorted(report["engine"]) == [
            "graph_hits",
            "graph_misses",
            "graph_patches",
            "incremental",
        ]
        assert "sssp" not in render_flight_report(report)


class TestBitIdentity:
    def test_flight_flag_does_not_change_content_hash(self):
        assert (
            make_task(flight=True).content_hash()
            == make_task(flight=False).content_hash()
        )

    def test_recorded_task_is_bit_identical(self, tmp_path):
        # Same task, recording toggled purely by the presence of a store:
        # the records must match except for wall-clock duration.
        task = make_task()
        plain = run_task(task).to_dict()
        recorded = run_task(task, flight_store=tmp_path / "store").to_dict()
        plain.pop("duration_s")
        recorded.pop("duration_s")
        assert recorded == plain
        # ... and the artifact landed under the task's content hash.
        run_dir = flight_run_dir(tmp_path / "store", task.content_hash())
        assert (run_dir / "rounds.jsonl").exists()
        assert (run_dir / "summary.json").exists()

    def test_flight_without_store_records_nothing(self, tmp_path):
        record = run_task(make_task())  # no flight_store -> no artifact
        assert record.status == "ok"
        assert list_runs(tmp_path) == []

    def test_sweep_results_identical_with_and_without_flight(self, tmp_path):
        flighted = execute_sweep(
            make_spec(), store=ResultStore(tmp_path / "with-flight")
        )
        bare = execute_sweep(make_spec(flight=False))
        def strip(records):
            """Record dicts minus wall-clock and the flight request flag."""
            stripped = []
            for record in records:
                payload = record.to_dict()
                payload.pop("duration_s")
                payload["task"].pop("flight")
                stripped.append(payload)
            return stripped

        assert strip(flighted) == strip(bare)
        (entry,) = list_runs(tmp_path / "with-flight")
        assert entry["closed"]
        assert entry["rounds_recorded"] == CONFIG.rounds
        assert entry["protocol"] == "perigee-subset"


class TestRunResolution:
    def test_prefix_resolution_and_ambiguity(self, tmp_path):
        FlightRecorder(flight_run_dir(tmp_path, "abc123")).close()
        FlightRecorder(flight_run_dir(tmp_path, "abd456")).close()
        assert resolve_run_dir(tmp_path, "abc").name == "abc123"
        assert resolve_run_dir(tmp_path, "abc123").name == "abc123"
        with pytest.raises(ValueError):
            resolve_run_dir(tmp_path, "ab")
        with pytest.raises(FileNotFoundError):
            resolve_run_dir(tmp_path, "zzz")

    def test_list_runs_on_missing_directory(self, tmp_path):
        assert list_runs(tmp_path / "nope") == []


@pytest.fixture(scope="module")
def flight_store(tmp_path_factory):
    """A store whose flight-flagged queue one cluster worker has drained."""
    store = ResultStore(tmp_path_factory.mktemp("flight") / "store")
    WorkQueue(store).submit(make_spec())
    Worker(store, worker_id="flight-w", poll_interval=0.02).run(drain=True)
    return store


class TestWorkerRoundTrip:
    def test_worker_writes_artifact_for_flight_task(self, flight_store):
        key = make_task().content_hash()
        run_dir = flight_run_dir(flight_store.directory, key)
        assert (run_dir / "rounds.jsonl").exists()
        report = flight_report(run_dir)
        assert report["closed"]
        assert report["rounds_recorded"] == CONFIG.rounds
        assert report["meta"]["task"]["protocol"] == "perigee-subset"

    def test_inspect_lists_runs(self, flight_store, capsys):
        assert main(["inspect", "--store", str(flight_store.directory)]) == 0
        out = capsys.readouterr().out
        assert make_task().content_hash()[:12] in out
        assert "perigee-subset" in out

    def test_inspect_json_round_trips_worker_artifact(self, flight_store, capsys):
        key = make_task().content_hash()
        code = main(
            ["inspect", "--store", str(flight_store.directory), key[:10], "--json"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["key"] == key
        assert report["rounds_recorded"] == CONFIG.rounds
        assert report["churn"]["series"]  # rewire curve captured
        assert report["topology_drift"]["mean_edge_latency_ms"]["round0"] > 0

    def test_inspect_text_report(self, flight_store, capsys):
        key = make_task().content_hash()
        assert main(["inspect", "--store", str(flight_store.directory), key]) == 0
        out = capsys.readouterr().out
        assert "rewire churn" in out
        assert "topology drift" in out

    def test_inspect_unknown_key_fails(self, flight_store, capsys):
        code = main(
            ["inspect", "--store", str(flight_store.directory), "feedface"]
        )
        assert code == 1
        assert "no recorded run" in capsys.readouterr().err

    def test_inspect_empty_store(self, tmp_path, capsys):
        assert main(["inspect", "--store", str(tmp_path)]) == 0
        assert "no recorded runs" in capsys.readouterr().out


class TestServeRunsEndpoints:
    @pytest.fixture()
    def server(self, flight_store):
        server = build_server(flight_store, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def url(self, server, path: str) -> str:
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def test_runs_index(self, server):
        with urllib.request.urlopen(self.url(server, "/runs")) as response:
            assert response.status == 200
            entries = json.loads(response.read())
        (entry,) = entries
        assert entry["key"] == make_task().content_hash()
        assert entry["closed"]

    def test_single_run_by_prefix(self, server):
        key = make_task().content_hash()
        with urllib.request.urlopen(
            self.url(server, f"/runs/{key[:10]}")
        ) as response:
            report = json.loads(response.read())
        assert report["key"] == key
        assert report["rounds_recorded"] == CONFIG.rounds

    def test_unknown_run_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(self.url(server, "/runs/feedface"))
        assert excinfo.value.code == 404


class TestChromeTrace:
    def _events(self):
        simulator = Simulator(CONFIG, make_protocol("perigee-subset"))
        recorder = MetricsRecorder(trace=True)
        with use_recorder(recorder):
            simulator.run_round(0)
            simulator.run_round(1)
        return recorder.trace

    def test_structural_validity(self, tmp_path):
        out = tmp_path / "trace.json"
        count = write_chrome_trace(out, self._events())
        assert count > 0

        def reject(token):
            raise AssertionError(f"non-strict JSON token {token!r}")

        payload = json.loads(out.read_text(), parse_constant=reject)
        events = payload["traceEvents"]
        assert len(events) == count
        last_ts: dict[int, float] = {}
        for event in events:
            assert event["ph"] == "X"
            assert isinstance(event["name"], str) and event["name"]
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            # Monotone per-thread timestamps (what viewers require).
            assert event["ts"] >= last_ts.get(event["tid"], 0.0)
            last_ts[event["tid"]] = event["ts"]
        names = {event["name"] for event in events}
        assert {"round.mine", "round.propagate", "round.update"} <= names

    def test_parents_precede_children(self):
        events = chrome_trace_events(self._events())
        first = events[0]
        assert first["ts"] == 0.0
        # Of events starting together, the enclosing span must come first.
        for left, right in zip(events, events[1:]):
            if right["ts"] == left["ts"]:
                assert right["dur"] <= left["dur"]

    def test_empty_stream(self):
        assert chrome_trace_events([]) == []
        payload = chrome_trace_payload([])
        assert payload["traceEvents"] == []

    def test_cli_trace_command(self, tmp_path, capsys):
        out = tmp_path / "cli-trace.json"
        code = main(
            [
                "trace",
                "--out",
                str(out),
                "--num-nodes",
                "40",
                "--rounds",
                "2",
                "--blocks",
                "8",
            ]
        )
        assert code == 0
        assert "span event(s)" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["traceEvents"]
