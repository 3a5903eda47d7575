"""Shared configuration for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures and *prints*
the rows/series the paper reports (protocol orderings, improvement factors,
histogram summaries), so running ``pytest benchmarks/ --benchmark-only``
produces the data recorded in EXPERIMENTS.md.

The experiment scale is controlled by environment variables so the suite can
be run quickly on a laptop or at closer-to-paper scale on a larger machine:

* ``PERIGEE_BENCH_NODES``   (default 300)  — nodes per experiment
* ``PERIGEE_BENCH_ROUNDS``  (default 25)   — Perigee rounds
* ``PERIGEE_BENCH_BLOCKS``  (default 60)   — blocks mined per round
* ``PERIGEE_BENCH_REPEATS`` (default 1)    — independent latency draws

Set ``PERIGEE_BENCH_NODES=1000 PERIGEE_BENCH_ROUNDS=40 PERIGEE_BENCH_BLOCKS=100
PERIGEE_BENCH_REPEATS=3`` to match the paper's setup exactly (expect a long
run).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Mapping

import pytest


@dataclass(frozen=True)
class BenchScale:
    """Benchmark experiment scale, read from the environment."""

    num_nodes: int
    rounds: int
    blocks_per_round: int
    repeats: int
    seed: int

    @classmethod
    def from_environment(cls) -> "BenchScale":
        return cls(
            num_nodes=int(os.environ.get("PERIGEE_BENCH_NODES", "300")),
            rounds=int(os.environ.get("PERIGEE_BENCH_ROUNDS", "25")),
            blocks_per_round=int(os.environ.get("PERIGEE_BENCH_BLOCKS", "60")),
            repeats=int(os.environ.get("PERIGEE_BENCH_REPEATS", "1")),
            seed=int(os.environ.get("PERIGEE_BENCH_SEED", "0")),
        )


@pytest.fixture(scope="session")
def scale() -> BenchScale:
    return BenchScale.from_environment()


def print_banner(title: str) -> None:
    """Consistent section banner so benchmark output is easy to scan."""
    print()
    print("=" * 78)
    print(title)
    print("=" * 78)


def emit_bench_json(record: Mapping[str, Any]) -> None:
    """Print one scrapeable ``BENCH-JSON`` record line.

    Every benchmark emits its measurements through this helper so CI logs
    can be scraped with a single ``grep '^BENCH-JSON '`` regardless of which
    suite produced them.  The record schema is documented in README.md
    ("Benchmark record schema"); keys are sorted so diffs between runs of
    the same benchmark align line-by-line.

    With ``PERIGEE_BENCH_HISTORY=1`` each record is also appended to
    ``benchmarks/history.jsonl`` keyed by git SHA + bench id (best-effort),
    giving the repo a perf trajectory that
    ``python benchmarks/history.py check`` diffs in CI.  Recording is
    opt-in so that running the test suite leaves tracked files untouched.
    """
    print("BENCH-JSON " + json.dumps(dict(record), sort_keys=True))
    try:
        try:
            from benchmarks.history import append_record
        except ImportError:  # benchmarks/ itself on sys.path (pytest rootdir)
            from history import append_record

        append_record(record)
    except (ImportError, OSError):  # history is advisory, never break a bench
        pass
