"""Span/counter/gauge recorder — the instrumentation core.

Two recorder implementations share one tiny API surface:

* :class:`NullRecorder` — the **default**.  Every operation is a no-op and
  ``span()`` hands back one shared, reusable context manager, so code
  instrumented with telemetry pays a function call and nothing else when
  telemetry is disabled.  Simulation outputs are bit-identical either way
  because recorders never touch RNG state — the only clock they read is
  ``time.perf_counter()`` (monotonic), and only the metrics recorder reads
  it at all.
* :class:`MetricsRecorder` — in-memory aggregation.  Spans accumulate
  ``(count, total, min, max)`` per metric key, counters and gauges are plain
  dictionaries.  All updates take an internal lock, so the worker heartbeat
  thread can record alongside the task thread.  An optional ``trace`` mode
  additionally keeps an ordered event list with nesting depth — used by
  tests and debugging, not by production workers (the list grows per span).

Metric keys
-----------
A metric is identified by a dotted name plus optional string tags, encoded
into one flat key: ``"evaluate.delay|mode=sampled"``.  Tags are sorted, so
the same (name, tags) always produces the same key.  :func:`split_key`
recovers the parts; the Prometheus renderer turns them into labels.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Mapping

from repro.instruments import InstrumentSlot


def metric_key(name: str, tags: Mapping[str, Any] | None = None) -> str:
    """Flat, deterministic key for a (name, tags) metric identity."""
    if not tags:
        return name
    parts = "|".join(f"{k}={tags[k]}" for k in sorted(tags))
    return f"{name}|{parts}"


def split_key(key: str) -> tuple[str, dict[str, str]]:
    """Invert :func:`metric_key` into ``(name, tags)``."""
    if "|" not in key:
        return key, {}
    name, _, rest = key.partition("|")
    tags: dict[str, str] = {}
    for part in rest.split("|"):
        tag, _, value = part.partition("=")
        tags[tag] = value
    return name, tags


@dataclass
class SpanStats:
    """Aggregate duration statistics of one span key."""

    count: int = 0
    total_s: float = 0.0
    min_s: float = float("inf")
    max_s: float = 0.0

    def add(self, duration_s: float) -> None:
        self.count += 1
        self.total_s += duration_s
        if duration_s < self.min_s:
            self.min_s = duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s

    def merge(self, other: "SpanStats") -> None:
        self.count += other.count
        self.total_s += other.total_s
        self.min_s = min(self.min_s, other.min_s)
        self.max_s = max(self.max_s, other.max_s)

    def to_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total_s,
            "min_s": self.min_s,
            "max_s": self.max_s,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SpanStats":
        return cls(
            count=int(payload.get("count", 0)),
            total_s=float(payload.get("total_s", 0.0)),
            min_s=float(payload.get("min_s", float("inf"))),
            max_s=float(payload.get("max_s", 0.0)),
        )


@dataclass(frozen=True)
class TraceEvent:
    """One completed span in trace mode, in completion order."""

    name: str
    depth: int
    start_s: float
    duration_s: float


class _NullSpan:
    """Shared, reusable no-op context manager (the disabled-telemetry span)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Recorder that records nothing; the process-wide default."""

    enabled = False

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def incr(self, name: str, value: float = 1, **tags: Any) -> None:
        return None

    def gauge(self, name: str, value: float, **tags: Any) -> None:
        return None


class _Span:
    """Context manager timing one span on a :class:`MetricsRecorder`."""

    __slots__ = ("_recorder", "_key", "_start")

    def __init__(self, recorder: "MetricsRecorder", key: str) -> None:
        self._recorder = recorder
        self._key = key

    def __enter__(self) -> "_Span":
        self._recorder._enter_span()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = time.perf_counter() - self._start
        self._recorder._exit_span(self._key, self._start, duration)
        return None


class MetricsRecorder:
    """Thread-safe in-memory span/counter/gauge aggregation.

    Parameters
    ----------
    trace:
        Keep an ordered :class:`TraceEvent` list (with nesting depth) in
        addition to the aggregates.  Off by default — the list grows by one
        entry per span, which long worker runs do not want.
    """

    enabled = True

    def __init__(self, trace: bool = False) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._spans: dict[str, SpanStats] = {}
        self._trace: list[TraceEvent] | None = [] if trace else None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def span(self, name: str, **tags: Any) -> _Span:
        return _Span(self, metric_key(name, tags))

    def incr(self, name: str, value: float = 1, **tags: Any) -> None:
        key = metric_key(name, tags)
        with self._lock:
            self._counters[key] = self._counters.get(key, 0) + value

    def gauge(self, name: str, value: float, **tags: Any) -> None:
        key = metric_key(name, tags)
        with self._lock:
            self._gauges[key] = float(value)

    def _depth(self) -> int:
        return getattr(self._local, "depth", 0)

    def _enter_span(self) -> None:
        self._local.depth = self._depth() + 1

    def _exit_span(self, key: str, start_s: float, duration_s: float) -> None:
        depth = self._depth()
        self._local.depth = depth - 1
        with self._lock:
            stats = self._spans.get(key)
            if stats is None:
                stats = self._spans[key] = SpanStats()
            stats.add(duration_s)
            if self._trace is not None:
                name, _ = split_key(key)
                self._trace.append(
                    TraceEvent(
                        name=name,
                        depth=depth - 1,
                        start_s=start_s,
                        duration_s=duration_s,
                    )
                )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def counter(self, name: str, **tags: Any) -> float:
        with self._lock:
            return self._counters.get(metric_key(name, tags), 0)

    def span_stats(self, name: str, **tags: Any) -> SpanStats | None:
        with self._lock:
            stats = self._spans.get(metric_key(name, tags))
            return None if stats is None else SpanStats(**stats.to_dict())

    @property
    def trace(self) -> list[TraceEvent]:
        """Completed spans in completion order (trace mode only)."""
        if self._trace is None:
            raise RuntimeError("recorder was not created with trace=True")
        with self._lock:
            return list(self._trace)

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable cumulative state (what shards persist)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "spans": {
                    key: stats.to_dict() for key, stats in self._spans.items()
                },
            }


#: Process-wide default recorder instance.
NULL_RECORDER = NullRecorder()

#: Union type accepted everywhere a recorder is passed around.
TelemetryRecorder = NullRecorder | MetricsRecorder

_SLOT: InstrumentSlot[TelemetryRecorder] = InstrumentSlot(NULL_RECORDER)

#: The active recorder (the no-op :data:`NULL_RECORDER` by default).
get_recorder = _SLOT.get
#: Install a recorder process-wide; returns the previous one.
set_recorder = _SLOT.set
#: ``with use_recorder(rec): ...`` — scoped recorder installation.
use_recorder = _SLOT.use
