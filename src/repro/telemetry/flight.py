"""Flight recorder: per-round introspection of one simulation run.

Fleet telemetry (:mod:`repro.telemetry.fleet`) stops at task granularity —
it can say *that* a Perigee run converged, never *how*.  The flight recorder
captures the trajectory itself: for every simulated round it records the
rewire events (edges dropped/added per node), the distribution of the
neighbor scores Algorithm 1 ranked, the structural summary of the overlay
(:func:`repro.metrics.topology.topology_summary`), and — on an interval — a
sampled delay evaluation, yielding the ``reach90`` convergence series of
Section 5.2 without waiting for the final evaluation.

Contract (same as :class:`~repro.telemetry.recorder.NullRecorder`): recording
is **off by default** and bit-identical when off.  The module-level
:data:`NULL_FLIGHT_RECORDER` answers every hook with a no-op, and a live
:class:`FlightRecorder` only *reads* simulation state — topology summaries
are pure, and the in-flight :class:`~repro.metrics.evaluator.DelayEvaluator`
draws its sources from its own seeded stream — so an instrumented run
produces exactly the same results and stored records as a bare one.

Artifact layout, under ``<store>/runs/<task-hash>/``::

    meta.json      # who ran: task description / free-form metadata
    rounds.jsonl   # one JSON row per round, appended and fsynced as it runs
    trace.npz      # columnar per-round series, written on close()
    summary.json   # rounds recorded + final-evaluation percentiles, on close()

``rounds.jsonl`` is the source of truth: it is appended incrementally, so a
crashed run keeps every completed round and stays inspectable
(``perigee-sim inspect``).  ``trace.npz`` is a convenience view for NumPy
consumers and only exists for runs that closed cleanly.
"""

from __future__ import annotations

import io
import json
import math
import os
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from repro.instruments import InstrumentSlot
from repro.metrics.convergence import convergence_report
from repro.metrics.evaluator import DelayEvaluator
from repro.metrics.topology import topology_summary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.simulator import Simulator

#: Subdirectory of a result store holding one artifact directory per run.
RUNS_DIRNAME = "runs"

ROUNDS_FILENAME = "rounds.jsonl"
META_FILENAME = "meta.json"
SUMMARY_FILENAME = "summary.json"
TRACE_FILENAME = "trace.npz"

#: Schema version stamped into every artifact file.
FLIGHT_SCHEMA_VERSION = 1

#: In-flight delay evaluation policy: always sampled, and much smaller than
#: the task-level default — the recorder evaluates on a per-round interval,
#: so the cost must stay a small fraction of the round itself (the telemetry
#: benchmark holds the whole recorder under a 10% round-loop budget).
#: Sources are drawn from the evaluator's own seeded stream, never from the
#: simulation RNG.
DEFAULT_FLIGHT_EVALUATOR = DelayEvaluator(mode="sampled", sample_size=32)

#: Topology-summary fields mirrored into the columnar ``trace.npz``.
_TOPOLOGY_SERIES_FIELDS = (
    "num_edges",
    "mean_degree",
    "max_degree",
    "mean_edge_latency_ms",
    "median_edge_latency_ms",
    "low_latency_edge_fraction",
    "connected",
)


def runs_dir(store_directory: str | os.PathLike) -> Path:
    """The ``runs/`` directory of a store (not created)."""
    return Path(store_directory) / RUNS_DIRNAME


def flight_run_dir(store_directory: str | os.PathLike, key: str) -> Path:
    """The artifact directory of one run, keyed by task content hash."""
    return runs_dir(store_directory) / key


def _json_safe(value: Any) -> Any:
    """Coerce a scalar for strict JSON: non-finite floats become ``None``."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    number = float(value)
    return number if math.isfinite(number) else None


def _percentile_stats(values: np.ndarray) -> dict[str, Any]:
    """Compact distribution summary over possibly-infinite sample values."""
    values = np.asarray(values, dtype=float)
    finite = values[np.isfinite(values)]
    stats: dict[str, Any] = {
        "count": int(values.size),
        "finite": int(finite.size),
    }
    if finite.size:
        stats["mean"] = float(finite.mean())
        stats["p10"] = float(np.percentile(finite, 10))
        stats["p50"] = float(np.percentile(finite, 50))
        stats["p90"] = float(np.percentile(finite, 90))
    else:
        stats["mean"] = stats["p10"] = stats["p50"] = stats["p90"] = None
    return stats


def _write_json_atomic(path: Path, payload: Mapping[str, Any]) -> None:
    # Imported lazily: this module is reachable from `repro.core.simulator`,
    # and importing `repro.runtime` submodules at module scope would close
    # an import cycle back through the executor.
    from repro.runtime.atomics import atomic_write_json
    from repro.runtime.retry import DEFAULT_IO_RETRY

    atomic_write_json(
        path,
        payload,
        indent=2,
        fsync=False,
        fault_point="flight.write",
        retry_policy=DEFAULT_IO_RETRY,
    )


class NullFlightRecorder:
    """Flight recorder that records nothing; the process-wide default."""

    enabled = False

    def record_rewires(
        self,
        nodes: Sequence[int],
        dropped: Sequence[int],
        added: Sequence[int],
    ) -> None:
        return None

    def record_scores(self, scores: np.ndarray) -> None:
        return None

    def on_round(self, simulator: "Simulator", round_index: int) -> None:
        return None

    def record_final(
        self,
        reach90: np.ndarray | Sequence[float] | None = None,
        reach50: np.ndarray | Sequence[float] | None = None,
    ) -> None:
        return None

    def close(self) -> None:
        return None

    def __enter__(self) -> "NullFlightRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class FlightRecorder:
    """Per-round run trace, persisted incrementally to one artifact directory.

    Parameters
    ----------
    directory:
        Artifact directory of this run (created on construction); tasks use
        :func:`flight_run_dir` so the key is the task content hash.
    meta:
        Free-form JSON-serialisable metadata written to ``meta.json`` (the
        runtime stores the full task description here).
    topology_every:
        Record a :func:`topology_summary` every this many rounds (1 = every
        round, 0 = never).
    delay_every:
        Run the in-flight delay evaluation every this many rounds
        (1 = every round, 0 = never).  Defaults to every other round: even a
        sampled evaluation costs a visible slice of a round, and the final
        reach percentiles arrive through :meth:`record_final` regardless.
    delay_evaluator:
        Policy for the in-flight evaluation; defaults to
        :data:`DEFAULT_FLIGHT_EVALUATOR` (sampled, 32 sources).

    The recorder is *driven* by the simulator: :meth:`on_round` is called at
    the end of every :meth:`~repro.core.simulator.Simulator.run_round` and
    flushes one JSON row, draining whatever the protocol buffered through
    :meth:`record_rewires`/:meth:`record_scores` during its update.
    """

    enabled = True

    def __init__(
        self,
        directory: str | os.PathLike,
        meta: Mapping[str, Any] | None = None,
        topology_every: int = 1,
        delay_every: int = 2,
        delay_evaluator: DelayEvaluator | None = None,
    ) -> None:
        if topology_every < 0:
            raise ValueError("topology_every must be >= 0 (0 disables)")
        if delay_every < 0:
            raise ValueError("delay_every must be >= 0 (0 disables)")
        self._directory = Path(directory)
        self._topology_every = int(topology_every)
        self._delay_every = int(delay_every)
        self._evaluator = (
            delay_evaluator
            if delay_evaluator is not None
            else DEFAULT_FLIGHT_EVALUATOR
        )
        self._handle = None
        self._closed = False
        # Per-round buffers filled by the protocol, drained by on_round().
        self._rewire_nodes: list[int] = []
        self._rewire_dropped: list[int] = []
        self._rewire_added: list[int] = []
        self._scores: list[np.ndarray] = []
        # Columnar per-round series accumulated for trace.npz.
        self._series: dict[str, list[float]] = {
            "round": [],
            "nodes_updated": [],
            "edges_dropped": [],
            "edges_added": [],
            "score_p50": [],
            "score_p90": [],
            "delay_p50": [],
            "delay_p90": [],
        }
        for field in _TOPOLOGY_SERIES_FIELDS:
            self._series[f"topo_{field}"] = []
        self._final: dict[str, Any] | None = None
        self._directory.mkdir(parents=True, exist_ok=True)
        _write_json_atomic(
            self._directory / META_FILENAME,
            {"schema": FLIGHT_SCHEMA_VERSION, "meta": dict(meta or {})},
        )

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def rounds_recorded(self) -> int:
        return len(self._series["round"])

    # ------------------------------------------------------------------ #
    # Hooks called from the instrumented layers
    # ------------------------------------------------------------------ #
    def record_rewires(
        self,
        nodes: Sequence[int],
        dropped: Sequence[int],
        added: Sequence[int],
    ) -> None:
        """Buffer one update pass's rewire events (counts per node)."""
        if not len(nodes) == len(dropped) == len(added):
            raise ValueError("nodes, dropped and added must align")
        self._rewire_nodes.extend(int(node) for node in nodes)
        self._rewire_dropped.extend(int(count) for count in dropped)
        self._rewire_added.extend(int(count) for count in added)

    def record_scores(self, scores: np.ndarray) -> None:
        """Buffer the neighbor scores one update pass ranked."""
        scores = np.asarray(scores, dtype=float)
        if scores.size:
            self._scores.append(scores)

    def on_round(self, simulator: "Simulator", round_index: int) -> None:
        """Flush one per-round row (called at the end of ``run_round``)."""
        row: dict[str, Any] = {"round": int(round_index)}
        nodes = self._rewire_nodes
        dropped = self._rewire_dropped
        added = self._rewire_added
        self._rewire_nodes, self._rewire_dropped, self._rewire_added = [], [], []
        row["rewire"] = {
            "nodes_updated": len(nodes),
            "edges_dropped": int(sum(dropped)),
            "edges_added": int(sum(added)),
            "node": nodes,
            "dropped": dropped,
            "added": added,
        }
        scores = (
            np.concatenate(self._scores)
            if self._scores
            else np.zeros(0, dtype=float)
        )
        self._scores = []
        row["scores"] = _percentile_stats(scores)
        if self._topology_every and round_index % self._topology_every == 0:
            summary = topology_summary(
                simulator.network, simulator.latency_model
            )
            row["topology"] = {
                key: _json_safe(value) for key, value in summary.items()
            }
        if self._delay_every and (round_index + 1) % self._delay_every == 0:
            reach = self._evaluator.reach_times(
                simulator.engine,
                simulator.network,
                simulator.population.hash_power,
                simulator.config.hash_power_target,
            )
            row["delay"] = _percentile_stats(reach)
        # Cumulative incremental-engine counters (graph hit / patch / rebuild).
        try:
            stats = simulator.engine.cache_stats()
        except AttributeError:
            stats = None
        if stats is not None:
            row["engine"] = {key: int(value) for key, value in stats.items()}
        self._append_row(row)
        self._accumulate(row)

    def record_final(
        self,
        reach90: np.ndarray | Sequence[float] | None = None,
        reach50: np.ndarray | Sequence[float] | None = None,
    ) -> None:
        """Record the task's final evaluation (already computed — free)."""
        final: dict[str, Any] = {}
        if reach90 is not None:
            final["reach90"] = _percentile_stats(np.asarray(reach90, dtype=float))
        if reach50 is not None:
            final["reach50"] = _percentile_stats(np.asarray(reach50, dtype=float))
        if final:
            self._final = final

    def close(self) -> None:
        """Write the columnar ``trace.npz`` + ``summary.json`` and stop."""
        if self._closed:
            return
        self._closed = True
        if self._handle is not None:
            self._handle.close()
            self._handle = None
        arrays = {
            name: np.asarray(values, dtype=float)
            for name, values in self._series.items()
        }
        from repro.runtime.atomics import atomic_write_bytes
        from repro.runtime.retry import DEFAULT_IO_RETRY

        trace_path = self._directory / TRACE_FILENAME
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        atomic_write_bytes(
            trace_path,
            buffer.getvalue(),
            fsync=False,
            fault_point="flight.write",
            retry_policy=DEFAULT_IO_RETRY,
        )
        _write_json_atomic(
            self._directory / SUMMARY_FILENAME,
            {
                "schema": FLIGHT_SCHEMA_VERSION,
                "rounds_recorded": self.rounds_recorded,
                "final": self._final,
            },
        )

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Persistence internals
    # ------------------------------------------------------------------ #
    def _append_row(self, row: Mapping[str, Any]) -> None:
        if self._closed:
            raise RuntimeError("flight recorder is closed")
        if self._handle is None:
            self._handle = (self._directory / ROUNDS_FILENAME).open(
                "a", encoding="utf-8"
            )
        self._handle.write(json.dumps(row, sort_keys=True) + "\n")
        # Flushed + fsynced per round: a crashed run keeps its prefix.
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _accumulate(self, row: Mapping[str, Any]) -> None:
        rewire = row["rewire"]
        scores = row["scores"]
        series = self._series
        series["round"].append(float(row["round"]))
        series["nodes_updated"].append(float(rewire["nodes_updated"]))
        series["edges_dropped"].append(float(rewire["edges_dropped"]))
        series["edges_added"].append(float(rewire["edges_added"]))
        for name in ("p50", "p90"):
            value = scores.get(name)
            series[f"score_{name}"].append(
                float("nan") if value is None else float(value)
            )
        topology = row.get("topology") or {}
        for field in _TOPOLOGY_SERIES_FIELDS:
            value = topology.get(field)
            series[f"topo_{field}"].append(
                float("nan") if value is None else float(value)
            )
        delay = row.get("delay") or {}
        for name in ("p50", "p90"):
            value = delay.get(name)
            series[f"delay_{name}"].append(
                float("nan") if value is None else float(value)
            )


#: Process-wide default flight recorder instance (records nothing).
NULL_FLIGHT_RECORDER = NullFlightRecorder()

_SLOT: InstrumentSlot[NullFlightRecorder | FlightRecorder] = InstrumentSlot(
    NULL_FLIGHT_RECORDER
)

#: The active flight recorder (:data:`NULL_FLIGHT_RECORDER` by default).
get_flight_recorder = _SLOT.get
#: Install a flight recorder process-wide; returns the previous one.
set_flight_recorder = _SLOT.set
#: ``with use_flight_recorder(rec): ...`` — scoped installation.
use_flight_recorder = _SLOT.use


# --------------------------------------------------------------------------- #
# Reading and reporting (perigee-sim inspect, /runs endpoints)
# --------------------------------------------------------------------------- #
def _read_json(path: Path) -> dict | None:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return None
    return payload if isinstance(payload, dict) else None


def load_run(run_dir: str | os.PathLike) -> dict[str, Any]:
    """Load one run artifact (tolerates crashed runs: prefix of rounds).

    Returns ``{"key", "meta", "rounds", "summary"}``; ``summary`` is ``None``
    for runs that never closed.  Raises :class:`FileNotFoundError` when the
    directory holds no flight artifact at all.
    """
    from repro.runtime.store import iter_jsonl_payloads

    run_dir = Path(run_dir)
    meta_payload = _read_json(run_dir / META_FILENAME)
    rounds_path = run_dir / ROUNDS_FILENAME
    if meta_payload is None and not rounds_path.exists():
        raise FileNotFoundError(f"no flight-recorder artifact in {run_dir}")
    rounds = (
        [row for row in iter_jsonl_payloads(rounds_path) if "round" in row]
        if rounds_path.exists()
        else []
    )
    return {
        "key": run_dir.name,
        "meta": (meta_payload or {}).get("meta", {}),
        "rounds": rounds,
        "summary": _read_json(run_dir / SUMMARY_FILENAME),
    }


def list_runs(store_directory: str | os.PathLike) -> list[dict[str, Any]]:
    """One summary entry per recorded run under ``<store>/runs/``."""
    base = runs_dir(store_directory)
    entries: list[dict[str, Any]] = []
    if not base.is_dir():
        return entries
    for path in sorted(base.iterdir()):
        if not path.is_dir():
            continue
        try:
            run = load_run(path)
        except FileNotFoundError:
            continue
        task = run["meta"].get("task", {})
        entries.append(
            {
                "key": run["key"],
                "experiment": task.get("experiment") or run["meta"].get("experiment"),
                "protocol": task.get("protocol") or run["meta"].get("protocol"),
                "repeat": task.get("repeat"),
                "rounds_recorded": len(run["rounds"]),
                "closed": run["summary"] is not None,
            }
        )
    return entries


def resolve_run_dir(store_directory: str | os.PathLike, key: str) -> Path:
    """Resolve a (possibly abbreviated) run key to its artifact directory."""
    base = runs_dir(store_directory)
    exact = base / key
    if exact.is_dir():
        return exact
    matches = sorted(
        path for path in base.glob(f"{key}*") if path.is_dir()
    ) if base.is_dir() else []
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise FileNotFoundError(f"no recorded run matches {key!r} in {base}")
    names = ", ".join(path.name[:12] for path in matches)
    raise ValueError(f"run key {key!r} is ambiguous: {names}")


def flight_report(run_dir: str | os.PathLike) -> dict[str, Any]:
    """The inspect payload of one run: convergence, churn, topology drift."""
    run = load_run(run_dir)
    rounds = run["rounds"]

    delay_series = [
        (row["round"], row["delay"]["p90"])
        for row in rounds
        if row.get("delay") and row["delay"].get("p90") is not None
    ]
    report = convergence_report(delay_series)
    convergence: dict[str, Any] = {
        "points": report.num_points,
        "series": [[int(r), float(v)] for r, v in delay_series],
        "initial_p90_ms": _json_safe(report.initial_ms),
        "final_p90_ms": _json_safe(report.final_ms),
        "improvement": _json_safe(report.total_improvement()),
        "rounds_to_within_5pct": report.rounds_to_within(0.05),
    }

    churn_series = [
        [int(row["round"]), int(row["rewire"]["edges_dropped"])]
        for row in rounds
        if row.get("rewire") is not None
    ]
    churn: dict[str, Any] = {"series": churn_series}
    if churn_series:
        churn["first_round"] = churn_series[0][1]
        churn["last_round"] = churn_series[-1][1]
        churn["total_edges_dropped"] = sum(count for _, count in churn_series)

    topology_rounds = [row for row in rounds if row.get("topology")]
    drift: dict[str, Any] = {}
    if topology_rounds:
        first = topology_rounds[0]["topology"]
        last = topology_rounds[-1]["topology"]
        for field in sorted(set(first) | set(last)):
            start, end = first.get(field), last.get(field)
            drift[field] = {
                "round0": start,
                "final": end,
                "delta": (
                    end - start
                    if isinstance(start, (int, float))
                    and isinstance(end, (int, float))
                    else None
                ),
            }

    # Engine cache counters are cumulative; the last recorded round carries
    # the run totals.
    engine: dict[str, Any] = {}
    engine_rounds = [row["engine"] for row in rounds if row.get("engine")]
    if engine_rounds:
        engine = dict(engine_rounds[-1])

    summary = run["summary"] or {}
    return {
        "key": run["key"],
        "meta": run["meta"],
        "rounds_recorded": len(rounds),
        "closed": run["summary"] is not None,
        "convergence": convergence,
        "churn": churn,
        "topology_drift": drift,
        "engine": engine,
        "final": summary.get("final"),
    }


def _format_ms(value: Any) -> str:
    return "n/a" if value is None else f"{value:.1f} ms"


def render_flight_report(report: Mapping[str, Any]) -> str:
    """Human-readable rendering of one :func:`flight_report` payload."""
    task = report["meta"].get("task", {})
    protocol = task.get("protocol") or report["meta"].get("protocol") or "?"
    experiment = (
        task.get("experiment") or report["meta"].get("experiment") or "?"
    )
    lines = [
        f"run {report['key'][:12]}: {experiment} / {protocol}, "
        f"{report['rounds_recorded']} round(s) recorded"
        + ("" if report["closed"] else " (run did not close cleanly)")
    ]
    convergence = report["convergence"]
    if convergence["points"]:
        lines.append("convergence (in-flight sampled reach, p90):")
        lines.append(
            f"  round {convergence['series'][0][0]}: "
            f"{_format_ms(convergence['initial_p90_ms'])} -> "
            f"round {convergence['series'][-1][0]}: "
            f"{_format_ms(convergence['final_p90_ms'])}"
        )
        improvement = convergence["improvement"]
        if improvement is not None:
            lines.append(f"  improvement: {improvement:.1%}")
        settled = convergence["rounds_to_within_5pct"]
        if settled is not None:
            lines.append(f"  within 5% of final by round {settled}")
    churn = report["churn"]
    if churn.get("series"):
        lines.append(
            "rewire churn: "
            f"round {churn['series'][0][0]} dropped {churn['first_round']} "
            f"edge(s) -> final round dropped {churn['last_round']}; "
            f"total {churn['total_edges_dropped']} over "
            f"{len(churn['series'])} round(s)"
        )
    if report["topology_drift"]:
        lines.append("topology drift (round 0 -> final):")
        for field in (
            "mean_edge_latency_ms",
            "low_latency_edge_fraction",
            "mean_degree",
            "connected",
        ):
            entry = report["topology_drift"].get(field)
            if entry is None:
                continue
            start = "n/a" if entry["round0"] is None else f"{entry['round0']:.3f}"
            end = "n/a" if entry["final"] is None else f"{entry['final']:.3f}"
            lines.append(f"  {field}: {start} -> {end}")
    engine = report.get("engine") or {}
    if engine.get("incremental"):
        lines.append(
            "engine cache: "
            f"graph {engine.get('graph_hits', 0)} hit / "
            f"{engine.get('graph_patches', 0)} patched / "
            f"{engine.get('graph_misses', 0)} rebuilt"
        )
    final = report.get("final") or {}
    reach90 = final.get("reach90")
    if reach90:
        lines.append(
            "final evaluation: reach90 "
            f"p50={_format_ms(reach90.get('p50'))}, "
            f"p90={_format_ms(reach90.get('p90'))}"
        )
    return "\n".join(lines)
