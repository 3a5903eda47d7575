"""Merged fleet view: one payload behind ``status``, ``serve`` and Prometheus.

:func:`fleet_status` reads a store directory — queue entries, leases, worker
registrations, result records, sweep specs, and telemetry shards — and
produces a single JSON-serialisable payload.  The CLI text view
(:func:`render_status_text`), ``perigee-sim status --json``, the ``/status``
endpoint and the ``/metrics`` Prometheus exposition
(:func:`prometheus_text`) are all renderings of this one structure, so the
four views can never drift apart.

The payload is computed from on-disk state only (no live worker is
contacted), which is what makes it readable *while a sweep is draining*:
records accumulate in worker shards, telemetry snapshots accumulate in
metric shards, and every call simply re-merges what is currently visible.
"""

from __future__ import annotations

import os
import time
from typing import Any

import numpy as np

from repro.runtime.aggregate import StreamingAggregator
from repro.runtime.checkpoint import list_checkpoints
from repro.runtime.cluster.queue import WorkQueue
from repro.runtime.store import ResultStore, merge_records
from repro.runtime.tasks import TaskRecord
from repro.telemetry.recorder import split_key
from repro.telemetry.shards import load_worker_snapshots, merge_snapshots

#: Sweep convergence traces are downsampled to at most this many points.
MAX_TRACE_POINTS = 64


def _finite(values: list[float]) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    return array[np.isfinite(array)]


def _percentiles(values: np.ndarray) -> dict[str, float] | None:
    if values.size == 0:
        return None
    return {
        "p10": float(np.percentile(values, 10)),
        "p50": float(np.percentile(values, 50)),
        "p90": float(np.percentile(values, 90)),
    }


def _sweep_entries(
    store: ResultStore, records: list[TaskRecord]
) -> list[dict[str, Any]]:
    """Per-sweep progress + streaming delay-percentile convergence traces.

    ``records`` is one :meth:`ResultStore.iter_records` scan, in shard
    append order; the first record read for a task counts.
    """
    try:
        specs = store.load_specs()
    except Exception:  # pragma: no cover - unreadable spec files
        specs = {}
    if not specs:
        return []
    key_to_sweep: dict[str, str] = {}
    totals: dict[str, int] = {}
    for name, spec in specs.items():
        tasks = spec.expand()
        totals[name] = len(tasks)
        for task in tasks:
            key_to_sweep[task.content_hash()] = name
    # The finite reach90 values of the sweep's ok records so far, one
    # array per record, so a trace point never re-converts earlier ones.
    finite_chunks: dict[str, list[np.ndarray]] = {name: [] for name in specs}
    ok_counts: dict[str, int] = {name: 0 for name in specs}
    failed_counts: dict[str, int] = {name: 0 for name in specs}
    traces: dict[str, list[dict[str, float]]] = {name: [] for name in specs}
    seen: dict[str, set[str]] = {name: set() for name in specs}
    # Streaming per-protocol mean curves: whatever subset of the sweep has
    # completed so far is folded into a running element-wise sum, so the
    # partial curves below converge on the exact final aggregation as the
    # drain progresses.
    aggregators: dict[str, StreamingAggregator] = {
        name: StreamingAggregator(name) for name in specs
    }
    # Records are read in shard append order, so the trace extends as the
    # fleet completes tasks — a live convergence view of a draining sweep.
    for record in records:
        name = key_to_sweep.get(record.key)
        if name is None or record.key in seen[name]:
            continue
        seen[name].add(record.key)
        if not record.ok:
            failed_counts[name] += 1
            continue
        ok_counts[name] += 1
        try:
            aggregators[name].add(record)
        except ValueError:  # mismatched curve lengths; skip the partial view
            pass
        if record.reach90:
            finite_chunks[name].append(_finite(record.reach90))
            stride = max(1, totals[name] // MAX_TRACE_POINTS)
            if ok_counts[name] % stride == 0 or ok_counts[name] == totals[name]:
                finite = np.concatenate(finite_chunks[name])
                if finite.size:
                    p50, p90 = np.percentile(finite, (50, 90)).tolist()
                    traces[name].append(
                        {
                            "tasks_done": ok_counts[name],
                            "p50_ms": p50,
                            "p90_ms": p90,
                        }
                    )
    entries = []
    for name in sorted(specs):
        chunks = finite_chunks[name]
        finite = np.concatenate(chunks) if chunks else np.empty(0)
        entries.append(
            {
                "name": name,
                "tasks_total": totals[name],
                "tasks_ok": ok_counts[name],
                "tasks_failed": failed_counts[name],
                "progress": (
                    ok_counts[name] / totals[name] if totals[name] else 1.0
                ),
                "reach90_ms": _percentiles(finite),
                "trace": traces[name],
                "curves": aggregators[name].partial_summary(),
            }
        )
    return entries


def _checkpoint_summary(store: ResultStore) -> dict[str, Any]:
    """In-flight checkpoint artifacts: how many tasks could resume, and from
    how far in (the newest round across all snapshots)."""
    entries = list_checkpoints(store.directory)
    return {
        "tasks": len(entries),
        "bytes": sum(entry["bytes"] for entry in entries),
        "newest_round": max(
            (entry["round"] for entry in entries), default=None
        ),
    }


def _throughput(
    records: dict[str, Any],
    queue: dict[str, int],
    workers: list[dict[str, Any]],
) -> dict[str, float | None]:
    durations = [
        record.duration_s
        for record in records.values()
        if record.ok and record.duration_s is not None
    ]
    alive = sum(1 for worker in workers if worker["alive"])
    avg = float(np.mean(durations)) if durations else None
    remaining = queue["pending"] + queue["leased"]
    if avg is None or avg <= 0:
        return {"avg_task_s": avg, "tasks_per_minute": None, "eta_s": None}
    effective_workers = max(alive, 1)
    return {
        "avg_task_s": avg,
        "tasks_per_minute": 60.0 * effective_workers / avg,
        "eta_s": remaining * avg / effective_workers,
    }


def fleet_status(
    store: ResultStore | str | os.PathLike,
    lease_ttl: float = 60.0,
) -> dict[str, Any]:
    """One merged fleet snapshot (see module docstring for consumers)."""
    store = store if isinstance(store, ResultStore) else ResultStore(store)
    queue = WorkQueue(store, lease_ttl=lease_ttl)
    # One scan of the result shards feeds the queue counts (each worker's
    # completions included), the throughput and the sweep traces.
    scanned = list(store.iter_records())
    records = merge_records(scanned)
    status = queue.status(scanned)
    workers = [
        {
            "worker_id": worker.worker_id,
            "last_seen_s": round(worker.age_seconds, 3),
            "alive": worker.alive,
            "completed": worker.completed,
            "active_claims": worker.active_claims,
        }
        for worker in status.workers
    ]
    queue_payload = {"pending": status.pending, "leased": status.leased}
    snapshots = load_worker_snapshots(store.directory)
    payload: dict[str, Any] = {
        "store": str(store.directory),
        "generated_at": time.time(),
        "lease_ttl_s": float(lease_ttl),
        "queue": queue_payload,
        "records": {
            "ok": status.records_ok,
            "failed": status.records_failed,
        },
        "workers": workers,
        "leases": [
            {
                "key": lease.key,
                "worker_id": lease.worker_id,
                "attempt": lease.attempt,
                "age_s": round(lease.age_seconds, 3),
            }
            for lease in status.leases
        ],
        "throughput": _throughput(records, queue_payload, workers),
        "checkpoints": _checkpoint_summary(store),
        "sweeps": _sweep_entries(store, scanned),
        "telemetry": {
            "workers": snapshots,
            "totals": merge_snapshots(snapshots),
        },
    }
    return payload


# --------------------------------------------------------------------- #
# Text rendering (the classic `perigee-sim status` output, extended)
# --------------------------------------------------------------------- #
def render_status_text(payload: dict[str, Any]) -> str:
    lines = [
        (
            f"queue: {payload['queue']['pending']} pending, "
            f"{payload['queue']['leased']} leased; "
            f"store: {payload['records']['ok']} ok, "
            f"{payload['records']['failed']} failed"
        )
    ]
    throughput = payload.get("throughput", {})
    if throughput.get("avg_task_s") is not None:
        eta = throughput.get("eta_s")
        lines.append(
            f"throughput: {throughput['avg_task_s']:.2f}s/task avg"
            + (f", eta {eta:.0f}s" if eta is not None else "")
        )
    if not payload["workers"]:
        lines.append("workers: none registered")
    else:
        lines.append("workers:")
        for worker in payload["workers"]:
            liveness = "alive" if worker["alive"] else "dead "
            claims = (
                f"  claims {worker['active_claims']}"
                if worker["active_claims"]
                else ""
            )
            lines.append(
                f"  {worker['worker_id']:<32} {liveness} "
                f"last seen {worker['last_seen_s']:6.1f}s ago  "
                f"completed {worker['completed']}{claims}"
            )
    checkpoints = payload.get("checkpoints") or {}
    if checkpoints.get("tasks"):
        lines.append(
            f"checkpoints: {checkpoints['tasks']} resumable task(s), "
            f"{checkpoints['bytes'] / 1024:.0f} KiB, "
            f"newest at round {checkpoints['newest_round']}"
        )
    for sweep in payload.get("sweeps", []):
        done = sweep["tasks_ok"] + sweep["tasks_failed"]
        line = (
            f"sweep {sweep['name']}: {done}/{sweep['tasks_total']} done"
            f" ({sweep['tasks_failed']} failed)"
        )
        reach = sweep.get("reach90_ms")
        if reach is not None:
            line += f", reach90 p50 {reach['p50']:.1f}ms"
        lines.append(line)
        for protocol, curve in (sweep.get("curves") or {}).items():
            if "p90_ms" not in curve:
                continue
            lines.append(
                f"  {protocol:<24} mean curve p50 {curve['p50_ms']:7.1f}ms  "
                f"p90 {curve['p90_ms']:7.1f}ms  "
                f"({curve['repeats']} repeat(s) in)"
            )
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Prometheus text exposition (version 0.0.4)
# --------------------------------------------------------------------- #
def _prom_name(name: str, suffix: str = "") -> str:
    cleaned = "".join(
        ch if ch.isalnum() or ch == "_" else "_" for ch in name
    )
    return f"perigee_{cleaned}{suffix}"


def _prom_labels(tags: dict[str, str]) -> str:
    if not tags:
        return ""
    escaped = {
        key: str(value).replace("\\", "\\\\").replace('"', '\\"')
        for key, value in sorted(tags.items())
    }
    inner = ",".join(f'{key}="{value}"' for key, value in escaped.items())
    return "{" + inner + "}"


class _PromWriter:
    """Accumulates samples grouped per metric (exposition requires that all
    lines of one metric form a single group, with HELP/TYPE first)."""

    def __init__(self) -> None:
        self._groups: dict[str, list[str]] = {}

    def sample(
        self,
        name: str,
        kind: str,
        help_text: str,
        value: float,
        tags: dict[str, str] | None = None,
        sample_suffix: str = "",
    ) -> None:
        group = self._groups.get(name)
        if group is None:
            group = self._groups[name] = [
                f"# HELP {name} {help_text}",
                f"# TYPE {name} {kind}",
            ]
        if not np.isfinite(value):
            rendered = "+Inf" if value > 0 else ("-Inf" if value < 0 else "NaN")
        else:
            rendered = repr(float(value))
        group.append(
            f"{name}{sample_suffix}{_prom_labels(tags or {})} {rendered}"
        )

    def text(self) -> str:
        lines = [line for group in self._groups.values() for line in group]
        return "\n".join(lines) + "\n"


def prometheus_text(payload: dict[str, Any]) -> str:
    """Render a :func:`fleet_status` payload as Prometheus exposition text."""
    writer = _PromWriter()
    writer.sample(
        "perigee_queue_pending", "gauge",
        "Tasks queued and not currently leased.",
        payload["queue"]["pending"],
    )
    writer.sample(
        "perigee_queue_leased", "gauge",
        "Tasks currently leased by workers.",
        payload["queue"]["leased"],
    )
    writer.sample(
        "perigee_records_ok_total", "counter",
        "Distinct tasks with an ok record in the store.",
        payload["records"]["ok"],
    )
    writer.sample(
        "perigee_records_failed_total", "counter",
        "Distinct tasks whose latest record is a failure.",
        payload["records"]["failed"],
    )
    writer.sample(
        "perigee_workers_alive", "gauge",
        "Workers seen within the lease TTL.",
        sum(1 for worker in payload["workers"] if worker["alive"]),
    )
    for worker in payload["workers"]:
        tags = {"worker": worker["worker_id"]}
        writer.sample(
            "perigee_worker_last_seen_seconds", "gauge",
            "Seconds since the worker's last heartbeat.",
            worker["last_seen_s"], tags,
        )
        writer.sample(
            "perigee_worker_completed_total", "counter",
            "Distinct tasks the worker completed successfully.",
            worker["completed"], tags,
        )
        writer.sample(
            "perigee_worker_active_claims", "gauge",
            "Leases the worker currently holds.",
            worker["active_claims"], tags,
        )
    throughput = payload.get("throughput", {})
    if throughput.get("eta_s") is not None:
        writer.sample(
            "perigee_fleet_eta_seconds", "gauge",
            "Estimated seconds until the queue drains.",
            throughput["eta_s"],
        )
    if throughput.get("avg_task_s") is not None:
        writer.sample(
            "perigee_task_duration_seconds_avg", "gauge",
            "Mean duration of completed tasks.",
            throughput["avg_task_s"],
        )
    for sweep in payload.get("sweeps", []):
        tags = {"sweep": sweep["name"]}
        writer.sample(
            "perigee_sweep_tasks_total", "gauge",
            "Tasks in the sweep grid.",
            sweep["tasks_total"], tags,
        )
        writer.sample(
            "perigee_sweep_tasks_ok", "gauge",
            "Sweep tasks completed successfully so far.",
            sweep["tasks_ok"], tags,
        )
        reach = sweep.get("reach90_ms")
        if reach is not None:
            for quantile, key in (("0.5", "p50"), ("0.9", "p90")):
                writer.sample(
                    "perigee_sweep_reach90_milliseconds", "gauge",
                    "Pooled per-source 90%-hash-power reach time.",
                    reach[key], {**tags, "quantile": quantile},
                )
        for protocol, curve in (sweep.get("curves") or {}).items():
            if "p90_ms" not in curve:
                continue
            curve_tags = {**tags, "protocol": protocol}
            writer.sample(
                "perigee_sweep_curve_repeats", "gauge",
                "Successful repeats folded into the partial mean curve.",
                curve["repeats"], curve_tags,
            )
            for quantile, key in (("0.5", "p50_ms"), ("0.9", "p90_ms")):
                writer.sample(
                    "perigee_sweep_curve_milliseconds", "gauge",
                    "Percentile of the streaming partial mean delay curve.",
                    curve[key], {**curve_tags, "quantile": quantile},
                )
    checkpoints = payload.get("checkpoints") or {}
    if checkpoints:
        writer.sample(
            "perigee_checkpoint_tasks", "gauge",
            "Tasks with a resumable checkpoint on disk.",
            checkpoints.get("tasks", 0),
        )
        writer.sample(
            "perigee_checkpoint_bytes", "gauge",
            "Total size of checkpoint snapshots on disk.",
            checkpoints.get("bytes", 0),
        )
    # Per-worker recorder metrics: counters, gauges, span summaries.
    for worker_id, snapshot in payload["telemetry"]["workers"].items():
        base = {"worker": worker_id}
        for key in sorted(snapshot.get("counters", {})):
            name, tags = split_key(key)
            writer.sample(
                _prom_name(name, "_total"), "counter",
                f"Telemetry counter {name}.",
                snapshot["counters"][key], {**base, **tags},
            )
        for key in sorted(snapshot.get("gauges", {})):
            name, tags = split_key(key)
            writer.sample(
                _prom_name(name), "gauge",
                f"Telemetry gauge {name}.",
                snapshot["gauges"][key], {**base, **tags},
            )
        for key in sorted(snapshot.get("spans", {})):
            name, tags = split_key(key)
            stats = snapshot["spans"][key]
            metric = _prom_name(name, "_seconds")
            labels = {**base, **tags}
            writer.sample(
                metric, "summary",
                f"Telemetry span {name} durations.",
                stats["total_s"], labels, sample_suffix="_sum",
            )
            writer.sample(
                metric, "summary",
                f"Telemetry span {name} durations.",
                stats["count"], labels, sample_suffix="_count",
            )
    return writer.text()
