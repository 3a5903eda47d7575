"""End-to-end and per-layer benchmark of the reproduction.

Runs the workloads of ``benchmarks/e2e/workloads.py``, each in a fresh
process, and reports the metrics declared in ``BENCHMARK.json``::

    python -m benchmarks.e2e.run [--workload NAME ...] [--seed S] [--repeat K]
                                 [--trace 0|1] [--scale paper|smoke]
                                 [--out FILE] [--record]
    python -m benchmarks.e2e.run compare BASE.json HEAD.json

Without ``--trace`` every workload runs untraced ``--repeat`` times
(end-to-end metrics, medians over the repeats) and then once traced
(per-layer metrics).  ``--trace 0`` or ``--trace 1`` runs one mode only and
ends stdout with one JSON line holding ``correct``, ``attempted``,
``failed`` and that mode's metrics.  ``--out`` appends every run to a JSON
file that ``compare`` reads; ``--record`` appends the medians to
``benchmarks/e2e/ledger.jsonl``.

This file uses only the standard library: the program and its numerical
stack are imported by the workload processes alone.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
LEDGER_FILE = ROOT / "benchmarks" / "e2e" / "ledger.jsonl"
DEFAULT_WORK_DIR = ROOT / ".e2e-work"
WORKLOADS = ("fig3a-n1000", "scale-n20k-sparse", "drain-2w-n150")

#: Set-up is sampled this many times per untraced run (the run itself plus
#: set-up-only processes); the median is reported.
SETUP_SAMPLES = {"paper": 3, "smoke": 1}

#: One workload process may not run longer than this.
CHILD_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    """A workload process failed to produce a result."""


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (``statistics`` inclusive method)."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


# ---------------------------------------------------------------------- #
# Workload processes
# ---------------------------------------------------------------------- #
class Session:
    """One invocation: its settings, work directory and process budget."""

    def __init__(
        self, args: argparse.Namespace, spec: dict[str, Any], work_dir: Path
    ) -> None:
        self.args = args
        self.spec = spec
        self.work_dir = work_dir
        self.children = 0
        # With a single mode requested (the form a harness calls) the whole
        # invocation must end within the child budget, not each process.
        self.deadline = (
            time.monotonic() + CHILD_TIMEOUT_S if args.trace is not None else None
        )

    def spawn(self, workload: str, mode: str) -> dict[str, Any]:
        """Run one workload process to completion and return its result."""
        self.children += 1
        run_dir = self.work_dir / f"{self.children:03d}-{workload}-{mode}"
        run_dir.mkdir(parents=True)
        out = run_dir / "result.json"
        log_path = run_dir / "process.log"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        timeout = CHILD_TIMEOUT_S
        if self.deadline is not None:
            timeout = max(1.0, self.deadline - time.monotonic())
        command = [
            sys.executable, "-m", "benchmarks.e2e.workloads", workload,
            "--seed", str(self.args.seed), "--scale", self.args.scale,
            "--mode", mode, "--seconds", str(self.args.seconds),
            "--work-dir", str(run_dir), "--out", str(out),
        ]
        with log_path.open("wb") as log:
            spawned_at = time.monotonic()
            process = subprocess.Popen(
                command + ["--spawned-at", repr(spawned_at)],
                cwd=ROOT,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
            finally:
                # The drain's workers share the process group: stop them
                # too, whatever state the workload process ended in.
                _kill_group(process)
        if process.returncode != 0 or not out.exists():
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-3000:]
            raise BenchError(
                f"{workload} ({mode}) exited with {process.returncode}:\n{tail}"
            )
        return json.loads(out.read_text(encoding="utf-8"))


def _kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()


def _check_layout() -> str | None:
    """Why this directory cannot run the benchmark, or ``None``."""
    if not BENCHMARK_FILE.is_file():
        return f"{BENCHMARK_FILE} is missing"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return f"no program sources under {ROOT / 'src'}; run from a checkout"
    return None


def measure_untraced(session: Session, workload: str) -> dict[str, Any]:
    """One untraced run plus set-up-only runs; the end-to-end metrics."""
    child = session.spawn(workload, "untraced")
    setups = [child["setup_s"]]
    for _ in range(SETUP_SAMPLES[session.args.scale] - 1):
        setups.append(session.spawn(workload, "setup")["setup_s"])
    ops = child["op_ms"]
    metrics = {
        "wall_s": child["wall_s"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": child["peak_rss_mb"],
        "op_ms_p50": percentile(ops, 50),
        "subset_gain_pct": child.get("subset_gain_pct", 0.0),
    }
    # The tail is reported without a bound: across seeds its spread on this
    # class of machine exceeds any bound BENCHMARK.json may declare.
    tail = {"op_ms_p80": percentile(ops, 80), "op_samples": len(ops)}
    return {
        "trace": 0, "child": child, "metrics": metrics, "tail": tail, "checks": {}
    }


def measure_traced(
    session: Session, workload: str, reference: dict[str, Any]
) -> dict[str, Any]:
    """One traced run, compared against an untraced run of the same seed."""
    child = session.spawn(workload, "traced")
    metrics = dict(child["layers"])
    metrics["trace_overhead_pct"] = 100.0 * (
        child["wall_s"] / reference["wall_s"] - 1.0
    )
    untraced = reference["reach_digests"]
    traced = child["reach_digests"]
    checks = {
        f"traced reach bytes == untraced: {key[:12]}": traced.get(key) == digest
        for key, digest in sorted(untraced.items())
    }
    checks["traced and untraced ran the same tasks"] = set(traced) == set(untraced)
    return {"trace": 1, "child": child, "metrics": metrics, "checks": checks}


def _outcome(runs: list[dict[str, Any]], extra: list[dict[str, Any]]) -> dict:
    """Correctness totals over runs and extra processes (e.g. references)."""
    children = [run["child"] for run in runs] + extra
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    failures = [
        f"{child['mode']}: {name}"
        for child in children
        for name, ok in child["checks"].items()
        if not ok
    ]
    for run in runs:
        attempted += len(run["checks"])
        bad = [name for name, ok in run["checks"].items() if not ok]
        failed += len(bad)
        failures.extend(f"compare: {name}" for name in bad)
    return {"attempted": attempted, "failed": failed, "failures": failures}


def _medians(runs: list[dict[str, Any]]) -> dict[str, float]:
    names = runs[0]["metrics"] if runs else {}
    return {
        name: statistics.median(run["metrics"][name] for run in runs)
        for name in names
    }


# ---------------------------------------------------------------------- #
# Reporting
# ---------------------------------------------------------------------- #
def _format(value: float) -> str:
    return f"{value:.6g}"


def _table(title: str, values: dict[str, float], declared: list[dict]) -> list[str]:
    lines = [f"  {title}"]
    for metric in declared:
        name = metric["name"]
        if name in values:
            lines.append(
                f"    {name:<38} {_format(values[name]):>14} {metric['unit']}"
            )
    return lines


def _report(
    workload: str,
    args: argparse.Namespace,
    spec: dict[str, Any],
    untraced: list[dict[str, Any]],
    traced: list[dict[str, Any]],
    outcome: dict[str, Any],
) -> None:
    lines = [f"== {workload}  seed {args.seed}  scale {args.scale} =="]
    if untraced:
        lines += _table(
            f"end-to-end (untraced, median of {len(untraced)} run(s))",
            _medians(untraced),
            spec["end_to_end"],
        )
        tails = [run["tail"]["op_ms_p80"] for run in untraced]
        lines.append(
            f"    {'op_ms_p80 (tail, no bound)':<38} "
            f"{_format(statistics.median(tails)):>14} ms  "
            f"({untraced[0]['tail']['op_samples']} operations a run)"
        )
        child = untraced[0]["child"]
        gains = ", ".join(
            f"{name} {value:.2f}%"
            for name, value in child.get("gains_pct", {}).items()
        )
        lines.append(f"    gain over random (first run): {gains}")
        lines.append(f"    records_sha256 {child['records_sha256']}")
    if traced:
        lines += _table(
            "per-layer (traced run)", _medians(traced), spec["per_layer"]
        )
    ratio = outcome["failed"] / max(1, outcome["attempted"])
    lines.append(
        f"  failed_ratio {ratio:g} "
        f"({outcome['failed']} failed of {outcome['attempted']} tasks, "
        "status calls and checks)"
    )
    lines += [f"  FAILED {name}" for name in outcome["failures"]]
    print("\n".join(lines), flush=True)


def _git_sha() -> str:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return completed.stdout.strip()


def _with_units(values: dict[str, float], declared: list[dict]) -> dict:
    return {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared
        if metric["name"] in values
    }


def _append_out(path: Path, entries: list[dict[str, Any]]) -> None:
    payload = {"runs": []}
    if path.exists():
        payload = json.loads(path.read_text(encoding="utf-8"))
    payload["runs"].extend(entries)
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------- #
# Measuring
# ---------------------------------------------------------------------- #
def measure_workload(session: Session, workload: str) -> dict[str, Any]:
    """The untraced repeats and the traced run one workload asks for."""
    args = session.args
    untraced: list[dict[str, Any]] = []
    traced: list[dict[str, Any]] = []
    extra: list[dict[str, Any]] = []
    if args.trace in (None, 0):
        untraced = [measure_untraced(session, workload) for _ in range(args.repeat)]
    if args.trace in (None, 1):
        if untraced:
            reference = untraced[0]["child"]
        else:
            reference = session.spawn(workload, "untraced")
            extra.append(reference)
        traced = [measure_traced(session, workload, reference)]
    outcome = _outcome(untraced + traced, extra)
    _report(workload, args, session.spec, untraced, traced, outcome)
    first = (untraced + traced)[0]["child"]
    return {
        "workload": workload,
        "seed": args.seed,
        "scale": args.scale,
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "records_sha256": first["records_sha256"],
        "gains_pct": first.get("gains_pct"),
        "untraced": untraced,
        "traced": traced,
    }


def _summary_fields(summary: dict[str, Any]) -> dict[str, Any]:
    return {
        key: summary[key]
        for key in ("workload", "seed", "scale", "correct", "attempted", "failed")
    }


def _out_entries(summary: dict[str, Any]) -> list[dict[str, Any]]:
    """One entry per run, the form ``compare`` reads."""
    return [
        {
            **_summary_fields(summary),
            "trace": run["trace"],
            "metrics": run["metrics"],
            "tail": run.get("tail"),
            "records_sha256": run["child"]["records_sha256"],
        }
        for run in summary["untraced"] + summary["traced"]
    ]


def _ledger_entry(summary: dict[str, Any], spec: dict[str, Any]) -> dict:
    """One ledger line, keyed by (git_sha, workload, seed, scale)."""
    return {
        **_summary_fields(summary),
        "git_sha": _git_sha(),
        "repeat": len(summary["untraced"]),
        "host": {
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "python": platform.python_version(),
        },
        "records_sha256": summary["records_sha256"],
        "gains_pct": summary["gains_pct"],
        "tail": [run["tail"] for run in summary["untraced"]],
        "end_to_end": _with_units(_medians(summary["untraced"]), spec["end_to_end"]),
        "per_layer": _with_units(_medians(summary["traced"]), spec["per_layer"]),
    }


def _result_line(summary: dict[str, Any], trace: int, spec: dict) -> dict:
    """The last stdout line of a single-mode invocation."""
    kind, runs = (
        ("end_to_end", summary["untraced"])
        if trace == 0
        else ("per_layer", summary["traced"])
    )
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": _with_units(_medians(runs), spec[kind]),
    }


def measure(args: argparse.Namespace, spec: dict[str, Any]) -> int:
    workloads = args.workload or list(WORKLOADS)
    if args.trace is not None and len(workloads) != 1:
        print("--trace needs exactly one --workload", file=sys.stderr)
        return 2
    base = Path(args.work_dir) if args.work_dir else DEFAULT_WORK_DIR
    work_dir = base / f"session-{os.getpid()}"
    session = Session(args, spec, work_dir)
    try:
        summaries = [measure_workload(session, workload) for workload in workloads]
    except BenchError as error:
        print(str(error), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if args.work_dir is None:
            try:
                DEFAULT_WORK_DIR.rmdir()
            except OSError:
                pass
    if args.out:
        _append_out(
            Path(args.out),
            [entry for summary in summaries for entry in _out_entries(summary)],
        )
    if args.record:
        with LEDGER_FILE.open("a", encoding="utf-8") as handle:
            for summary in summaries:
                handle.write(
                    json.dumps(_ledger_entry(summary, spec), sort_keys=True) + "\n"
                )
    if args.trace is not None:
        print(json.dumps(_result_line(summaries[0], args.trace, spec)))
    return 0


# ---------------------------------------------------------------------- #
# Comparing two sets of runs (choosing-metrics section 8)
# ---------------------------------------------------------------------- #
def verdict(
    base: list[float], head: list[float], better: str, bound: float
) -> tuple[str, dict[str, float]]:
    """Classify head against base for one metric of one workload.

    ``improved``: head wins at least 9 of 10 pairs (ties count for neither)
    and the medians differ by more than the base's quartile spread.
    ``unresolved``: either side's spread exceeds the bound, unless every
    head run is better (or every head run worse) than every base run.
    ``regressed``: head's median is worse than base's by more than the
    bound.  Otherwise ``within-bound``.
    """
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_med, b_q3 = quartiles(base)
    h_q1, h_med, h_q3 = quartiles(head)
    scale = abs(b_med) or 1.0
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    worse_by = sign * (h_med - b_med) / scale
    spread = max(b_q3 - b_q1, h_q3 - h_q1) / scale
    all_better = all(sign * (h - b) < 0 for h in head for b in base)
    all_worse = all(sign * (h - b) > 0 for h in head for b in base)
    stats = {
        "base_median": b_med,
        "head_median": h_med,
        "change": (h_med - b_med) / scale,
        "wins": wins,
        "pairs": len(pairs),
    }
    if pairs and wins >= 0.9 * len(pairs) and -worse_by * scale > b_q3 - b_q1:
        return "improved", stats
    if spread > bound and not (all_better or all_worse):
        return "unresolved", stats
    if worse_by > bound:
        return "regressed", stats
    return "within-bound", stats


def _load_runs(path: str) -> list[dict[str, Any]]:
    return json.loads(Path(path).read_text(encoding="utf-8"))["runs"]


def _metrics_by_trace(runs: list[dict[str, Any]], workload: str) -> dict:
    """``{0: untraced metrics, 1: traced metrics}`` of one workload's runs."""
    return {
        trace: [
            run["metrics"]
            for run in runs
            if run["workload"] == workload and run["trace"] == trace
        ]
        for trace in (0, 1)
    }


def compare(argv: list[str], spec: dict[str, Any]) -> int:
    parser = argparse.ArgumentParser(
        prog="run.py compare",
        description="Compare two --out files: parent (BASE) against change (HEAD).",
    )
    parser.add_argument("base")
    parser.add_argument("head")
    args = parser.parse_args(argv)
    base_runs, head_runs = _load_runs(args.base), _load_runs(args.head)
    regressed = False
    for workload in WORKLOADS:
        base, head = (
            _metrics_by_trace(runs, workload) for runs in (base_runs, head_runs)
        )
        if not base[0] or not head[0]:
            continue
        print(
            f"== {workload}: {len(base[0])} base / {len(head[0])} head "
            "untraced runs =="
        )
        print(
            f"  {'metric':<18} {'base median':>12} {'head median':>12} "
            f"{'change':>8} {'wins':>7} {'bound':>6}  verdict"
        )
        for metric in spec["end_to_end"]:
            name = metric["name"]
            result, stats = verdict(
                [run[name] for run in base[0]],
                [run[name] for run in head[0]],
                metric["better"],
                metric["bound"],
            )
            regressed = regressed or result == "regressed"
            print(
                f"  {name:<18} {_format(stats['base_median']):>12} "
                f"{_format(stats['head_median']):>12} "
                f"{100 * stats['change']:>+7.2f}% "
                f"{stats['wins']:>3}/{stats['pairs']:<3} "
                f"{100 * metric['bound']:>5.0f}%  {result}"
            )
        if len(base[0]) < 10 or len(head[0]) < 10:
            print("  (fewer than 10 runs a side: a gain needs at least 10 pairs)")
        if base[1] and head[1]:
            print("  per-layer medians (traced runs, no verdict):")
            for metric in spec["per_layer"]:
                name = metric["name"]
                before = statistics.median(run[name] for run in base[1])
                after = statistics.median(run[name] for run in head[1])
                print(
                    f"    {name:<38} {_format(before):>12} -> "
                    f"{_format(after):<12} {metric['unit']}"
                )
    return 1 if regressed else 0


# ---------------------------------------------------------------------- #
# Entry point
# ---------------------------------------------------------------------- #
def build_parser(spec: dict[str, Any]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="run.py", description=__doc__.splitlines()[0]
    )
    parser.add_argument(
        "--workload", action="append", choices=WORKLOADS, help="repeatable"
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(spec["run_seconds"]),
        help="length of the timed window (the drain's status loop fills it)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1, help="untraced runs per workload"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        default=None,
        help="run one mode only: 0 untraced (end-to-end), 1 traced (per-layer)",
    )
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument("--scale", choices=("paper", "smoke"), default="paper")
    parser.add_argument("--out", help="append every run to this JSON file")
    parser.add_argument(
        "--record", action="store_true", help=f"append medians to {LEDGER_FILE.name}"
    )
    parser.add_argument(
        "--work-dir", help="scratch directory (default: .e2e-work in the checkout)"
    )
    return parser


def _stop(signum: int, frame: object) -> None:
    # Unwind through the finally blocks that kill workload process groups.
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    signal.signal(signal.SIGTERM, _stop)
    problem = _check_layout()
    if problem is not None:
        print(f"benchmark cannot run: {problem}", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK_FILE.read_text(encoding="utf-8"))
    if argv[:1] == ["compare"]:
        return compare(argv[1:], spec)
    args = build_parser(spec).parse_args(argv)
    if args.repeat < 1:
        print("--repeat must be positive", file=sys.stderr)
        return 2
    return measure(args, spec)


if __name__ == "__main__":
    sys.exit(main())
