"""Benchmark perf trajectory: append BENCH-JSON records to a history file.

Every benchmark already emits a scrapeable ``BENCH-JSON`` line through
:func:`benchmarks.conftest.emit_bench_json`; until now those lines were
printed and thrown away, so the repo had no perf trajectory at all.  This
module gives each record a durable home:

* :func:`append_record` — called by ``emit_bench_json`` when
  ``PERIGEE_BENCH_HISTORY=1`` — appends the record to
  ``benchmarks/history.jsonl`` keyed by the current git SHA and the
  record's ``bench`` id.  Appending is best-effort and opt-in, so plain
  test runs leave the tracked file alone; the CI benchmark steps set it.
* :func:`check` — the CI step (``python benchmarks/history.py check``) —
  compares the current SHA's entries against the most recent *previous* SHA
  entry of each bench configuration (the bench id plus whichever of
  :data:`CONFIG_FIELDS` the record carries, so ladder rungs and variants
  are compared like for like) and **warns** (never fails) when any ``*_s``
  or ``*_ms`` timing field regressed by more than 20%.  Timing on shared
  CI runners is noisy; the budget-enforcing asserts live in the
  benchmarks themselves, this is the trend line.

The file is append-only JSONL (one ``{"sha", "bench", "record"}`` object per
line) so merges are trivial and a torn final line — e.g. from a killed run —
is skipped on read, matching the result-store convention.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Iterator, Mapping

HISTORY_FILENAME = "history.jsonl"

#: Relative timing regression (current / previous - 1) that triggers a warning.
REGRESSION_THRESHOLD = 0.20

#: Record fields that tell apart the configurations one bench id sweeps
#: (engine ladder rungs, observation variants, latency backends, sizes).
CONFIG_FIELDS = ("variant", "mode", "memory", "num_nodes", "churn_edges")


def history_path() -> Path:
    return Path(__file__).resolve().parent / HISTORY_FILENAME


@functools.lru_cache(maxsize=1)
def git_sha() -> str:
    """Short SHA of HEAD; falls back to ``GITHUB_SHA`` then ``unknown``."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    env_sha = os.environ.get("GITHUB_SHA", "")
    return env_sha[:12] if env_sha else "unknown"


def append_record(
    record: Mapping[str, Any], path: str | os.PathLike | None = None
) -> None:
    """Append one BENCH-JSON record to the history file (best-effort).

    Enabled only by ``PERIGEE_BENCH_HISTORY=1``.  Records without a
    ``bench`` id are skipped — they cannot be diffed across runs.
    """
    if os.environ.get("PERIGEE_BENCH_HISTORY") != "1":
        return
    bench = record.get("bench")
    if not bench:
        return
    entry = {"sha": git_sha(), "bench": bench, "record": dict(record)}
    target = Path(path) if path is not None else history_path()
    with target.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")


def iter_entries(path: str | os.PathLike | None = None) -> Iterator[dict]:
    """Yield history entries, skipping torn/corrupt lines."""
    target = Path(path) if path is not None else history_path()
    if not target.exists():
        return
    with target.open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(entry, dict) and "bench" in entry:
                yield entry


def _timing_fields(record: Mapping[str, Any]) -> dict[str, float]:
    return {
        key: float(value)
        for key, value in record.items()
        if key.endswith(("_s", "_ms"))
        and isinstance(value, (int, float))
        and value > 0
    }


def _config_label(entry: Mapping[str, Any]) -> str:
    """``bench`` plus the record's :data:`CONFIG_FIELDS`, e.g.
    ``engine-incremental [num_nodes=2000, churn_edges=16]``."""
    record = entry.get("record", {})
    config = ", ".join(
        f"{field}={record[field]}" for field in CONFIG_FIELDS if field in record
    )
    return f"{entry['bench']} [{config}]" if config else str(entry["bench"])


def check(
    path: str | os.PathLike | None = None,
    sha: str | None = None,
    threshold: float = REGRESSION_THRESHOLD,
) -> list[str]:
    """Diff the current SHA's records against the last previous entry per
    bench configuration (see :func:`_config_label`).

    Returns the warning lines (also printed); an empty list means no timing
    field regressed beyond ``threshold``.  Always an advisory: the caller
    (CI) treats warnings as log output, not failures.
    """
    sha = sha if sha is not None else git_sha()
    current: dict[str, dict] = {}
    previous: dict[str, dict] = {}
    for entry in iter_entries(path):
        bucket = current if entry.get("sha") == sha else previous
        # Last write wins: latest entry per bench configuration.
        bucket[_config_label(entry)] = entry
    warnings: list[str] = []
    for bench, entry in sorted(current.items()):
        baseline = previous.get(bench)
        if baseline is None:
            print(f"bench {bench}: no previous entry to compare against")
            continue
        now = _timing_fields(entry.get("record", {}))
        then = _timing_fields(baseline.get("record", {}))
        for field in sorted(set(now) & set(then)):
            ratio = now[field] / then[field]
            if ratio > 1.0 + threshold:
                unit = "ms" if field.endswith("_ms") else "s"
                warnings.append(
                    f"WARNING: bench {bench} field {field} regressed "
                    f"{(ratio - 1.0):.0%} vs {baseline.get('sha')} "
                    f"({then[field]:.4f}{unit} -> {now[field]:.4f}{unit})"
                )
        print(
            f"bench {bench}: {len(set(now) & set(then))} timing field(s) "
            f"compared against {baseline.get('sha')}"
        )
    for warning in warnings:
        print(warning)
    if not warnings:
        print("no >20% timing regressions against the previous entries")
    return warnings


def main(argv: list[str]) -> int:
    if len(argv) >= 1 and argv[0] == "check":
        check()
        return 0  # advisory: warnings never fail the build
    print("usage: python benchmarks/history.py check", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
