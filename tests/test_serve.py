"""Tests for the fleet-status payload, Prometheus rendering, and HTTP serving.

``perigee-sim status``, ``status --json``, ``GET /status`` and
``GET /metrics`` are four renderings of one :func:`fleet_status` payload;
these tests pin the payload shape, check the Prometheus text against the
exposition-format grammar, and drive the actual HTTP server on an
ephemeral port.
"""

from __future__ import annotations

import json
import re
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.config import default_config
from repro.runtime.cluster.queue import WorkQueue
from repro.runtime.cluster.worker import Worker
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec, TaskRecord
from repro.telemetry.fleet import (
    fleet_status,
    prometheus_text,
    render_status_text,
)
from repro.telemetry.serve import PROMETHEUS_CONTENT_TYPE, build_server

CONFIG = default_config(num_nodes=40, rounds=2, blocks_per_round=8, seed=3)


def make_spec(name="serve-unit", repeats=2) -> SweepSpec:
    return SweepSpec(
        name=name,
        config=CONFIG,
        protocols=("random", "perigee-subset"),
        repeats=repeats,
    )


@pytest.fixture(scope="module")
def drained_store(tmp_path_factory):
    """A store whose queue one telemetry-enabled worker has fully drained."""
    store = ResultStore(tmp_path_factory.mktemp("serve") / "runs")
    WorkQueue(store).submit(make_spec())
    worker = Worker(store, worker_id="serve-w", telemetry=True)
    worker.run(drain=True)
    return store


FLEET_FIXTURE = Path(__file__).parent / "fixtures" / "fleet_status_drained.json"


def build_synthetic_drained_store(directory) -> ResultStore:
    """A drained two-worker store with fixed records and durations.

    135 tasks (trace stride 2), reach times with unreachable (``inf``)
    sources, a duplicate completion, and a failure that a later ``ok``
    record supersedes in the other shard — which the store counts as ok
    but the sweep trace, reading the failure first, counts as failed.
    """
    store = ResultStore(directory)
    spec = SweepSpec(
        name="fleet-synthetic",
        config=default_config(num_nodes=12, rounds=2, seed=3),
        protocols=("random", "perigee-subset", "perigee-ucb"),
        repeats=45,
    )
    store.save_spec(spec)
    queue = WorkQueue(store)
    writers = {name: store.for_writer(name) for name in ("fleet-a", "fleet-b")}
    for name in writers:
        queue.register_worker(name)
    rng = np.random.default_rng(11)
    for index, task in enumerate(spec.expand()):
        reach90 = (rng.random(12) * 400.0).tolist()
        if index % 7 == 0:
            reach90[index % 12] = float("inf")
        record = TaskRecord(
            key=task.content_hash(),
            task=task,
            duration_s=0.25 * (1 + index % 4),
            reach90=reach90,
            reach50=[value / 2 for value in reach90],
        )
        shard = writers["fleet-a" if index % 2 else "fleet-b"]
        if index in (5, 60):
            other = writers["fleet-b" if index % 2 else "fleet-a"]
            other.append(
                TaskRecord(key=record.key, task=task, status="failed", error="x")
            )
        shard.append(record)
        if index == 9:
            shard.append(record)
    return store


def comparable_payload(payload: dict) -> str:
    """The payload without its clock-dependent fields and store path."""
    payload = dict(payload)
    for field in ("generated_at", "store"):
        payload.pop(field)
    payload["workers"] = [
        {key: value for key, value in worker.items() if key != "last_seen_s"}
        for worker in payload["workers"]
    ]
    payload["leases"] = [
        {key: value for key, value in lease.items() if key != "age_s"}
        for lease in payload["leases"]
    ]
    return json.dumps(payload, sort_keys=True)


class TestFleetStatus:
    def test_drained_payload_is_pinned(self, tmp_path):
        """The payload matches the one the three-scan implementation built
        for the same store, byte for byte, up to clocks and paths."""
        store = build_synthetic_drained_store(tmp_path / "runs")
        expected = FLEET_FIXTURE.read_text(encoding="utf-8").strip()
        assert comparable_payload(fleet_status(store)) == expected

    def test_results_are_scanned_once_per_call(self, tmp_path, monkeypatch):
        store = build_synthetic_drained_store(tmp_path / "runs")
        scans = []
        original = ResultStore.iter_records

        def counting(self):
            scans.append(self)
            return original(self)

        monkeypatch.setattr(ResultStore, "iter_records", counting)
        fleet_status(store)
        fleet_status(store)
        assert len(scans) == 2

    def test_payload_shape(self, drained_store):
        payload = fleet_status(drained_store)
        assert payload["queue"] == {"pending": 0, "leased": 0}
        assert payload["records"]["ok"] == 4
        assert payload["records"]["failed"] == 0
        (worker,) = payload["workers"]
        assert worker["worker_id"] == "serve-w"
        assert worker["completed"] == 4
        assert worker["active_claims"] == 0
        assert payload["leases"] == []
        assert payload["throughput"]["avg_task_s"] > 0
        assert payload["throughput"]["eta_s"] == 0.0
        (sweep,) = payload["sweeps"]
        assert sweep["name"] == "serve-unit"
        assert sweep["tasks_total"] == 4
        assert sweep["tasks_ok"] == 4
        assert sweep["progress"] == 1.0
        assert sweep["reach90_ms"]["p50"] > 0
        assert sweep["trace"]  # streaming convergence points accumulated
        assert sweep["trace"][-1]["tasks_done"] == 4
        totals = payload["telemetry"]["totals"]
        assert totals["counters"]["worker.completions"] == 4
        json.dumps(payload)  # the whole payload is JSON-serialisable

    def test_claimed_but_uncompleted_worker_is_visible(self, tmp_path):
        """A worker holding its first lease shows up before any record."""
        store = ResultStore(tmp_path / "runs")
        queue = WorkQueue(store)
        queue.submit(make_spec(name="lease-vis", repeats=1))
        claim = queue.claim("fresh-worker")
        assert claim is not None
        payload = fleet_status(store)
        (worker,) = payload["workers"]
        assert worker["worker_id"] == "fresh-worker"
        assert worker["completed"] == 0
        assert worker["active_claims"] == 1
        assert worker["alive"]
        (lease,) = payload["leases"]
        assert lease["worker_id"] == "fresh-worker"
        assert lease["key"] == claim.key
        assert lease["attempt"] == 1
        text = render_status_text(payload)
        assert "fresh-worker" in text
        assert "claims 1" in text

    def test_text_rendering_keeps_classic_lines(self, drained_store):
        text = render_status_text(fleet_status(drained_store))
        assert "queue: 0 pending, 0 leased" in text
        assert "store: 4 ok, 0 failed" in text
        assert "serve-w" in text
        assert "completed 4" in text
        assert "sweep serve-unit: 4/4 done" in text

    def test_empty_store(self, tmp_path):
        payload = fleet_status(tmp_path / "empty")
        assert payload["queue"] == {"pending": 0, "leased": 0}
        assert payload["workers"] == []
        text = render_status_text(payload)
        assert "workers: none registered" in text


# Exposition format v0.0.4: metric line with optional labels and a value.
SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    r"(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?"
    r" (?:[+-]?(?:Inf|NaN)|[+-]?[0-9.eE+-]+)$"
)


class TestPrometheusText:
    def test_exposition_parses(self, drained_store):
        text = prometheus_text(fleet_status(drained_store))
        assert text.endswith("\n")
        helped, typed, seen_samples = set(), {}, set()
        current_group = None
        for line in text.splitlines():
            if line.startswith("# HELP "):
                name = line.split()[2]
                assert name not in helped, f"duplicate HELP for {name}"
                helped.add(name)
                current_group = name
            elif line.startswith("# TYPE "):
                _, _, name, kind = line.split(None, 3)
                assert kind in {"counter", "gauge", "summary"}
                assert name == current_group
                typed[name] = kind
            else:
                assert SAMPLE_RE.match(line), f"unparseable sample: {line!r}"
                metric = re.split(r"[{ ]", line, maxsplit=1)[0]
                # Samples belong to the current group: exposition requires
                # all lines of one metric to be contiguous.
                assert metric.startswith(current_group)
                seen_samples.add(metric)
        assert helped == set(typed)

    def test_expected_metrics_present(self, drained_store):
        text = prometheus_text(fleet_status(drained_store))
        assert "perigee_queue_pending 0" in text
        assert "perigee_records_ok_total 4" in text
        assert 'perigee_worker_completed_total{worker="serve-w"} 4' in text
        assert (
            'perigee_worker_completions_total{worker="serve-w"} 4' in text
        )
        assert 'sweep="serve-unit"' in text
        # Recorder spans render as summary _sum/_count pairs.
        assert re.search(
            r'perigee_task_run_seconds_sum\{[^}]*worker="serve-w"[^}]*\} ',
            text,
        )
        # Two tasks per protocol: spans are tagged, so each count is 2.
        assert re.search(
            r'perigee_task_run_seconds_count\{[^}]*protocol="random"[^}]*\} 2',
            text,
        )

    def test_counter_samples_are_contiguous_across_workers(self, tmp_path):
        """Two workers' samples of one metric must form one group."""
        store = ResultStore(tmp_path / "runs")
        queue = WorkQueue(store)
        queue.submit(make_spec(name="two-workers", repeats=2))
        for worker_id in ("wa", "wb"):
            Worker(store, worker_id=worker_id, telemetry=True).run(
                drain=True, max_tasks=2
            )
        text = prometheus_text(fleet_status(store))
        positions = [
            index
            for index, line in enumerate(text.splitlines())
            if line.startswith("perigee_worker_completions_total")
        ]
        assert len(positions) == 2
        assert positions[1] == positions[0] + 1


class TestHTTPServer:
    @pytest.fixture()
    def server(self, drained_store):
        server = build_server(drained_store, port=0)
        import threading

        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()

    def url(self, server, path: str) -> str:
        host, port = server.server_address[:2]
        return f"http://{host}:{port}{path}"

    def test_status_endpoint(self, server):
        with urllib.request.urlopen(self.url(server, "/status")) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith(
                "application/json"
            )
            payload = json.loads(response.read())
        assert payload["records"]["ok"] == 4
        assert payload["telemetry"]["totals"]["counters"]

    def test_metrics_endpoint(self, server):
        with urllib.request.urlopen(self.url(server, "/metrics")) as response:
            assert response.status == 200
            assert response.headers["Content-Type"] == PROMETHEUS_CONTENT_TYPE
            text = response.read().decode()
        assert "perigee_records_ok_total 4" in text

    def test_healthz_and_404(self, server):
        with urllib.request.urlopen(self.url(server, "/healthz")) as response:
            assert response.read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(self.url(server, "/nope"))
        assert excinfo.value.code == 404


class TestCLI:
    def test_status_json_matches_fleet_payload(self, drained_store, capsys):
        assert main(["status", "--store", str(drained_store.directory), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records"]["ok"] == 4
        assert payload["workers"][0]["worker_id"] == "serve-w"
        assert payload["telemetry"]["totals"]["counters"]["worker.completions"] == 4

    def test_status_text_unchanged_surface(self, drained_store, capsys):
        assert main(["status", "--store", str(drained_store.directory)]) == 0
        out = capsys.readouterr().out
        assert "queue: 0 pending, 0 leased" in out
        assert "serve-w" in out

    def test_serve_parser_arguments(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "--store", "runs/", "--port", "0", "--host", "0.0.0.0"]
        )
        assert args.command == "serve"
        assert args.store == "runs/"
        assert args.port == 0
        assert args.host == "0.0.0.0"
        assert args.lease_ttl == 60.0
