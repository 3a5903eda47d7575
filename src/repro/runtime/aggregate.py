"""Reduction from stored task records back to experiment results.

Records are the persisted, per-task raw material (unsorted reach times);
this module rebuilds the objects the reporting/figure code consumes:
per-protocol mean :class:`~repro.metrics.delay.DelayCurve` objects bundled
into an :class:`ExperimentResult`, which is defined here beside the
aggregator that builds it.  The reduction is identical to what the old
serial loop computed inline, so a sweep executed through the runtime — in
any order, across any number of processes, possibly partially served from a
store — aggregates to byte-identical curves.

The reduction is **online**: :class:`StreamingAggregator` consumes one
record at a time and keeps only an element-wise running sum per protocol
(one curve of memory, not repeats x N), so the telemetry layer can report
partial mean delay-percentile curves while a sweep is still draining.
Dividing the running sum by the repeat count at read time is bit-identical
to ``np.vstack(curves).mean(axis=0)`` — IEEE-754 addition over the same
operands in the same order — which keeps the historical byte-identity
guarantee intact; :func:`records_to_result` is now a thin wrapper over the
streaming path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.config import SimulationConfig
from repro.metrics.delay import DelayCurve, improvement_over_baseline
from repro.metrics.topology import EdgeLatencyHistogram
from repro.runtime.tasks import TaskRecord


@dataclass
class ExperimentResult:
    """Per-protocol delay curves for one experiment.

    Attributes
    ----------
    name:
        Experiment identifier (e.g. ``"figure3a"``).
    config:
        The configuration shared by every protocol run.
    curves:
        Protocol name -> mean :class:`DelayCurve` across repeats (delays to the
        90% hash power target unless the experiment says otherwise).
    curves_50:
        Same, for the 50% hash power target.
    histograms:
        Optional edge-latency histograms (only populated by Figure 5).
    """

    name: str
    config: SimulationConfig
    curves: dict[str, DelayCurve] = field(default_factory=dict)
    curves_50: dict[str, DelayCurve] = field(default_factory=dict)
    histograms: dict[str, EdgeLatencyHistogram] = field(default_factory=dict)

    def improvement(
        self, candidate: str, baseline: str = "random", statistic: str = "median"
    ) -> float:
        """Relative improvement of ``candidate`` over ``baseline``."""
        return improvement_over_baseline(
            self.curves[candidate], self.curves[baseline], statistic
        )

    def protocol_names(self) -> list[str]:
        return list(self.curves)


def failed_records(records: Sequence[TaskRecord]) -> list[TaskRecord]:
    """The subset of records whose task failed."""
    return [record for record in records if not record.ok]


def _histogram_from_payload(payload: dict) -> EdgeLatencyHistogram:
    return EdgeLatencyHistogram(
        protocol=payload["protocol"],
        bin_edges_ms=np.asarray(payload["bin_edges_ms"], dtype=float),
        counts=np.asarray(payload["counts"], dtype=int),
        mean_ms=float(payload["mean_ms"]),
        median_ms=float(payload["median_ms"]),
        low_mode_fraction=float(payload["low_mode_fraction"]),
    )


class StreamingAggregator:
    """Online reduction of task records into per-protocol mean curves.

    Feed records in any order via :meth:`add`; at any point the aggregator
    can report partial mean curves (:meth:`mean_curves` /
    :meth:`partial_summary`) or finalise into an ``ExperimentResult``
    (:meth:`result`).  State per protocol is one running sum per target plus
    a repeat count — constant in the number of repeats.

    Ordering contract: summation happens in ``add()`` order, so feeding the
    same records in the same order as :func:`records_to_result` historically
    did (task order, failures skipped) reproduces its output byte-for-byte.
    """

    def __init__(self, name: str | None = None) -> None:
        self._name = name
        self._records_seen = 0
        self._protocols: list[str] = []
        self._counts: dict[str, int] = {}
        self._sum90: dict[str, np.ndarray] = {}
        self._sum50: dict[str, np.ndarray] = {}
        self._histograms: dict[str, dict] = {}
        self._failures: list[TaskRecord] = []
        self._first_ok: TaskRecord | None = None

    # ------------------------------------------------------------------ #
    # Feeding
    # ------------------------------------------------------------------ #
    def add(self, record: TaskRecord) -> None:
        """Fold one record in (failed records are tracked, not aggregated)."""
        self._records_seen += 1
        if not record.ok:
            self._failures.append(record)
            return
        if self._first_ok is None:
            self._first_ok = record
        protocol = record.task.protocol
        sorted90 = np.sort(np.asarray(record.reach90, dtype=float))
        sorted50 = np.sort(np.asarray(record.reach50, dtype=float))
        if protocol not in self._counts:
            self._protocols.append(protocol)
            self._counts[protocol] = 1
            self._sum90[protocol] = sorted90
            self._sum50[protocol] = sorted50
        else:
            if sorted90.shape != self._sum90[protocol].shape:
                raise ValueError(
                    f"reach-curve length mismatch for {protocol!r}: "
                    f"{sorted90.shape} vs {self._sum90[protocol].shape} "
                    "(records from differently-sized runs cannot average)"
                )
            self._counts[protocol] += 1
            self._sum90[protocol] = self._sum90[protocol] + sorted90
            self._sum50[protocol] = self._sum50[protocol] + sorted50
        if record.histogram is not None and protocol not in self._histograms:
            self._histograms[protocol] = record.histogram

    def extend(self, records: Iterable[TaskRecord]) -> None:
        for record in records:
            self.add(record)

    # ------------------------------------------------------------------ #
    # Introspection (valid mid-stream)
    # ------------------------------------------------------------------ #
    @property
    def records_seen(self) -> int:
        return self._records_seen

    @property
    def protocols(self) -> tuple[str, ...]:
        """Protocols aggregated so far, in first-seen order."""
        return tuple(self._protocols)

    @property
    def counts(self) -> dict[str, int]:
        """Successful repeats folded in so far, per protocol."""
        return dict(self._counts)

    @property
    def failures(self) -> list[TaskRecord]:
        return list(self._failures)

    def _target(self) -> float:
        assert self._first_ok is not None
        return self._first_ok.task.config.hash_power_target

    def mean_curves(self) -> dict[str, DelayCurve]:
        """Current per-protocol mean reach-90 curves (partial mid-sweep)."""
        if self._first_ok is None:
            return {}
        target = self._target()
        return {
            protocol: DelayCurve(
                protocol=protocol,
                sorted_delays_ms=self._sum90[protocol] / self._counts[protocol],
                target_fraction=target,
            )
            for protocol in self._protocols
        }

    def mean_curves_50(self) -> dict[str, DelayCurve]:
        """Current per-protocol mean reach-50 curves (partial mid-sweep)."""
        return {
            protocol: DelayCurve(
                protocol=protocol,
                sorted_delays_ms=self._sum50[protocol] / self._counts[protocol],
                target_fraction=0.5,
            )
            for protocol in self._protocols
        }

    def partial_summary(self) -> dict[str, dict]:
        """JSON-ready snapshot of the running means (what ``/status`` serves).

        One entry per protocol: repeats folded in so far and the
        10th/50th/90th percentiles (plus mean) of the *partial mean curve*
        over its finite values — infinite reach times (disconnected sources)
        are excluded from the percentiles but reported as a count.
        """
        summary: dict[str, dict] = {}
        for protocol, curve in self.mean_curves().items():
            values = np.asarray(curve.sorted_delays_ms, dtype=float)
            finite = values[np.isfinite(values)]
            entry: dict = {
                "repeats": self._counts[protocol],
                "points": int(values.size),
                "unreachable": int(values.size - finite.size),
            }
            if finite.size:
                entry.update(
                    mean_ms=float(finite.mean()),
                    p10_ms=float(np.percentile(finite, 10)),
                    p50_ms=float(np.percentile(finite, 50)),
                    p90_ms=float(np.percentile(finite, 90)),
                )
            summary[protocol] = entry
        return summary

    # ------------------------------------------------------------------ #
    # Finalisation
    # ------------------------------------------------------------------ #
    def result(
        self, name: str | None = None, strict: bool = True
    ) -> ExperimentResult:
        """Finalise into an ``ExperimentResult``.

        Mirrors the historical :func:`records_to_result` contract: with
        ``strict`` any failure raises ``RuntimeError`` naming the failed
        cells; otherwise failures are dropped and protocols average over
        their successful repeats (no successful record at all still raises).
        """
        if self._failures and strict:
            summary = "; ".join(
                f"{record.task.protocol}[repeat={record.task.repeat}]: "
                f"{(record.error or 'unknown error').splitlines()[0]}"
                for record in self._failures
            )
            raise RuntimeError(
                f"{len(self._failures)} task(s) failed: {summary}"
            )
        if self._first_ok is None:
            raise RuntimeError("no successful task records to aggregate")
        resolved_name = name if name is not None else self._name
        if resolved_name is None:
            resolved_name = self._first_ok.task.experiment
        result = ExperimentResult(
            name=resolved_name, config=self._first_ok.task.config
        )
        result.curves.update(self.mean_curves())
        result.curves_50.update(self.mean_curves_50())
        for protocol, payload in self._histograms.items():
            result.histograms[protocol] = _histogram_from_payload(payload)
        return result


def records_to_result(
    records: Sequence[TaskRecord],
    name: str | None = None,
    strict: bool = True,
) -> ExperimentResult:
    """Aggregate task records into an ``ExperimentResult``.

    A thin wrapper over :class:`StreamingAggregator` — records are folded in
    one at a time in the given order, so the output (including failure
    handling and byte-level curve content) is identical to the historical
    all-in-memory reduction.

    Parameters
    ----------
    records:
        Records in task order (repeat-major), e.g. the return value of
        :func:`repro.runtime.executor.execute_sweep`.
    name:
        Experiment name; defaults to the name carried by the first record.
    strict:
        When ``True`` (the default), any failed record raises a
        ``RuntimeError`` naming the failed cells.  When ``False``, failed
        records are dropped and protocols average over their successful
        repeats only (a protocol with no successful repeat still raises).
    """
    if not records:
        raise ValueError("records must be non-empty")
    aggregator = StreamingAggregator(name=name)
    aggregator.extend(records)
    return aggregator.result(name=name, strict=strict)
