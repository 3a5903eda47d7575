"""Plain-text rendering of experiment results.

Both the CLI and the benchmark harness print the same tables: per-protocol
delay summaries with improvements over the random baseline, the Figure 5
histogram summaries, and the Figure 4(a) sweep.  Keeping the formatting in one
place makes the printed output of ``pytest benchmarks/`` directly comparable
with EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.experiments import (
    NetworkScalingResult,
    ProcessingDelaySweepResult,
)
from repro.analysis.figures import figure5_rows, improvement_table
from repro.runtime.aggregate import ExperimentResult
from repro.runtime.tasks import TaskRecord


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], indent: str = ""
) -> str:
    """Render a fixed-width text table."""
    columns = [list(map(str, column)) for column in zip(headers, *rows)] if rows else [
        [str(h)] for h in headers
    ]
    widths = [max(len(cell) for cell in column) for column in columns]
    lines = []
    header_line = indent + "  ".join(
        str(header).ljust(width) for header, width in zip(headers, widths)
    )
    lines.append(header_line)
    lines.append(indent + "  ".join("-" * width for width in widths))
    for row in rows:
        lines.append(
            indent
            + "  ".join(str(cell).ljust(width) for cell, width in zip(row, widths))
        )
    return "\n".join(lines)


def render_experiment_report(
    result: ExperimentResult, baseline: str = "random", statistic: str = "median"
) -> str:
    """Human-readable report of one experiment's delay curves."""
    rows = []
    for protocol, value, improvement in improvement_table(result, baseline, statistic):
        rows.append(
            (
                protocol,
                f"{value:.1f}",
                f"{improvement * 100:+.1f}%",
                f"{result.curves[protocol].percentile(90):.1f}",
            )
        )
    table = format_table(
        (
            "protocol",
            f"{statistic} delay to 90% hash power (ms)",
            f"vs {baseline}",
            "p90 across nodes (ms)",
        ),
        rows,
    )
    header = (
        f"experiment: {result.name}  "
        f"(n={result.config.num_nodes}, rounds={result.config.rounds}, "
        f"hash power={result.config.hash_power_distribution})"
    )
    sections = [header, table]
    if result.histograms:
        hist_rows = [
            (protocol, f"{mean:.1f}", f"{median:.1f}", f"{fraction * 100:.1f}%")
            for protocol, mean, median, fraction in figure5_rows(result)
        ]
        sections.append("")
        sections.append("edge-latency histograms (Figure 5):")
        sections.append(
            format_table(
                ("protocol", "mean edge ms", "median edge ms", "low-mode fraction"),
                hist_rows,
            )
        )
    return "\n".join(sections)


def render_task_progress(done: int, total: int, record: TaskRecord) -> str:
    """One status line per finished runtime task (used by the CLI)."""
    source = "store" if record.cached else f"{record.duration_s:.1f}s"
    status = "" if record.ok else "  FAILED"
    return (
        f"[{done}/{total}] {record.task.experiment} "
        f"{record.task.protocol} repeat={record.task.repeat} ({source}){status}"
    )


def render_failure_report(records: Sequence[TaskRecord]) -> str:
    """Table of failed runtime tasks (empty string when none failed)."""
    failed = [record for record in records if not record.ok]
    if not failed:
        return ""
    rows = [
        (
            record.task.experiment,
            record.task.protocol,
            record.task.repeat,
            (record.error or "unknown error").splitlines()[0],
        )
        for record in failed
    ]
    return format_table(("experiment", "protocol", "repeat", "error"), rows)


def render_sweep_report(
    sweep: ProcessingDelaySweepResult,
    candidate: str = "perigee-subset",
    baseline: str = "random",
) -> str:
    """Human-readable report of the Figure 4(a) validation-delay sweep."""
    rows = []
    for scale in sweep.scales:
        result = sweep.results[scale]
        candidate_median = result.curves[candidate].median_ms
        baseline_median = result.curves[baseline].median_ms
        improvement = result.improvement(candidate, baseline)
        rows.append(
            (
                f"{scale:g}x",
                f"{candidate_median:.1f}",
                f"{baseline_median:.1f}",
                f"{improvement * 100:+.1f}%",
            )
        )
    return format_table(
        (
            "validation delay",
            f"{candidate} median (ms)",
            f"{baseline} median (ms)",
            "improvement",
        ),
        rows,
    )


def render_scaling_report(
    scaling: NetworkScalingResult,
    candidate: str = "perigee-subset",
    baseline: str = "random",
) -> str:
    """Human-readable report of the network-size scaling study."""
    rows = []
    for size in scaling.sizes:
        result = scaling.results[size]
        candidate_median = result.curves[candidate].median_ms
        baseline_median = result.curves[baseline].median_ms
        improvement = result.improvement(candidate, baseline)
        rows.append(
            (
                size,
                f"{candidate_median:.1f}",
                f"{baseline_median:.1f}",
                f"{improvement * 100:+.1f}%",
            )
        )
    return format_table(
        (
            "network size",
            f"{candidate} median (ms)",
            f"{baseline} median (ms)",
            "improvement",
        ),
        rows,
    )
