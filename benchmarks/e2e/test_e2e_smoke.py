"""Smoke test of the end-to-end benchmark: every workload, both modes.

Runs ``benchmarks/e2e/run.py`` at ``--scale smoke`` (a second or so of
work per workload) and checks the emitted metrics against the declaration
in ``BENCHMARK.json``.  Everything the benchmark writes goes under
``tmp_path``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_smoke_scale_emits_every_declared_metric(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = tmp_path / "runs.json"
    completed = subprocess.run(
        [
            sys.executable, str(RUN), "--scale", "smoke", "--seconds", "1",
            "--work-dir", str(tmp_path / "work"), "--out", str(out),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    runs = json.loads(out.read_text(encoding="utf-8"))["runs"]
    workloads = {workload["name"] for workload in spec["workloads"]}
    assert {(run["workload"], run["trace"]) for run in runs} == {
        (workload, trace) for workload in workloads for trace in (0, 1)
    }
    for kind, trace in (("end_to_end", 0), ("per_layer", 1)):
        declared = {metric["name"] for metric in spec[kind]}
        for metric in spec[kind]:
            assert NAME.fullmatch(metric["name"]), metric
            assert metric["unit"], metric
        for run in runs:
            if run["trace"] == trace:
                assert set(run["metrics"]) == declared, run["workload"]
    for run in runs:
        assert run["attempted"] > 0
        assert run["failed"] == 0, completed.stdout


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        RUN.parent,
        tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py",
            "--workload", "fig3a-n1000", "--seed", "0", "--trace", "0",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
