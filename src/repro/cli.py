"""Command line interface.

``perigee-sim`` runs any of the paper's experiments from the shell and prints
the same tables EXPERIMENTS.md records::

    perigee-sim figure3a --num-nodes 300 --rounds 12
    perigee-sim figure3a --workers 4 --store runs/
    perigee-sim figure4a --num-nodes 200
    perigee-sim figure5
    perigee-sim resume --store runs/ --workers 4
    perigee-sim list

``--workers N`` fans the protocol x repeat grid out over ``N`` worker
processes (bit-for-bit identical results to serial execution).  ``--store
DIR`` persists every task's raw results to an append-only JSONL store; an
interrupted sweep can then be completed with the ``resume`` subcommand,
which re-expands the sweeps recorded in the store and executes only the
tasks that are still missing.

Distributed execution scales the same grid past one machine.  Any number of
worker processes sharing a store directory cooperatively drain its on-disk
work queue (lease files with heartbeats; a crashed worker's tasks are
re-leased automatically)::

    perigee-sim submit figure3a --store runs/ --repeats 3   # enqueue only
    perigee-sim worker --store runs/ --drain [--telemetry]  # xN, any machine
    perigee-sim status --store runs/ [--json]               # fleet liveness
    perigee-sim serve --store runs/ --port 8321             # /status, /metrics
    perigee-sim resume --store runs/ [--cluster]            # aggregate/report
    perigee-sim compact --store runs/                       # merge shards

or in one step: ``perigee-sim figure3a --store runs/ --cluster`` publishes
the grid and participates in draining it, so extra ``worker`` processes
speed it up but none are required.  ``resume --cluster`` routes the missing
tasks of an interrupted sweep back through the queue; ``compact`` folds the
per-worker result shards into ``results.jsonl`` once a sweep has drained.

The ``scaling`` experiment (``perigee-sim scaling --num-nodes 2000``) runs
Perigee-Subset vs random over a ladder of network sizes under the
``large-network`` scenario — the large-N grid the array-native observation
pipeline was built for.

Per-run observability: ``--flight-recorder`` (on experiment, ``submit`` and
``worker`` subcommands) persists a per-round trace of every executed task
under ``<store>/runs/<hash>/``, inspectable after (or during) the run::

    perigee-sim figure3a --store runs/ --flight-recorder
    perigee-sim inspect --store runs/              # list recorded runs
    perigee-sim inspect --store runs/ <hash> [--json]
    perigee-sim trace --out trace.json             # Perfetto span trace

Checkpointing: ``--checkpoint-every R`` (on experiment, ``submit`` and
``worker`` subcommands) snapshots every adaptive task's full simulation
state to ``<store>/checkpoints/<hash>/`` every ``R`` rounds; a killed or
interrupted task resumes from its newest snapshot — bit-identical to an
uninterrupted run — instead of restarting at round zero::

    perigee-sim submit figure3a --store runs/ --checkpoint-every 5
    perigee-sim checkpoints --store runs/          # list resumable state
    perigee-sim checkpoints --store runs/ --prune  # drop completed tasks'

Fault injection: every worker process arms a fault plane from the
``PERIGEE_FAULT_PLAN`` environment variable (inline JSON or a file path),
and ``perigee-sim chaos`` closes the loop — it drains a real sweep through
a small worker fleet under a seeded schedule of crashes, torn writes,
injected IO errors and heartbeat delays, then asserts the surviving records
are byte-identical to a fault-free serial run::

    perigee-sim chaos --root /tmp/chaos --seed 7 [--json]

The CLI intentionally exposes only the experiment-level knobs (size, rounds,
repeats, seed, workers, store); anything finer grained is available through
the Python API.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.experiments import (
    EXPERIMENT_SPECS,
    NetworkScalingResult,
    ProcessingDelaySweepResult,
    build_experiment_specs,
    run_experiment,
)
from repro.analysis.reporting import (
    render_experiment_report,
    render_failure_report,
    render_scaling_report,
    render_sweep_report,
    render_task_progress,
)
from repro.runtime.aggregate import records_to_result
from repro.runtime.chaos import DEFAULT_CHAOS_ACTIONS
from repro.runtime.executor import execute_sweep, make_executor
from repro.runtime.faults import install_fault_plane_from_env
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="perigee-sim",
        description=(
            "Reproduction of 'Perigee: Efficient Peer-to-Peer Network Design "
            "for Blockchains' (PODC 2020)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subparsers = parser.add_subparsers(dest="command")

    list_parser = subparsers.add_parser("list", help="list available experiments")
    list_parser.set_defaults(command="list")

    resume_parser = subparsers.add_parser(
        "resume", help="complete the missing tasks of a stored sweep"
    )
    resume_parser.add_argument(
        "--store", required=True, help="result store directory of the sweep"
    )
    resume_parser.add_argument(
        "--workers", type=int, default=1, help="worker processes"
    )
    resume_parser.add_argument(
        "--cluster",
        action="store_true",
        help=(
            "route the remaining tasks through the store's distributed work "
            "queue instead of running them inline; external 'perigee-sim "
            "worker' processes sharing the store cooperate on them"
        ),
    )

    compact_parser = subparsers.add_parser(
        "compact",
        help=(
            "merge per-worker results-<id>.jsonl shards into results.jsonl "
            "(run after a cluster sweep has drained, not while workers are "
            "still appending)"
        ),
    )
    compact_parser.add_argument(
        "--store", required=True, help="store directory to compact"
    )

    submit_parser = subparsers.add_parser(
        "submit",
        help="enqueue an experiment's task grid for distributed workers",
    )
    submit_parser.add_argument(
        "experiment", choices=list(EXPERIMENT_SPECS), help="experiment to enqueue"
    )
    submit_parser.add_argument(
        "--store", required=True, help="store directory shared with the workers"
    )
    submit_parser.add_argument(
        "--num-nodes", type=int, default=300, help="number of nodes"
    )
    submit_parser.add_argument(
        "--rounds", type=int, default=12, help="protocol rounds"
    )
    submit_parser.add_argument("--seed", type=int, default=0, help="random seed")
    submit_parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="independent latency draws (figure5 takes only 1)",
    )
    submit_parser.add_argument(
        "--flight-recorder",
        action="store_true",
        help=(
            "flag every queued task for flight recording: draining workers "
            "persist per-round traces under <store>/runs/<hash>/"
        ),
    )
    submit_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="R",
        help=(
            "flag every queued task for checkpointing: draining workers "
            "snapshot simulation state under <store>/checkpoints/<hash>/ "
            "every R rounds, making reclaimed tasks resumable"
        ),
    )
    _add_large_n_arguments(submit_parser)

    worker_parser = subparsers.add_parser(
        "worker", help="drain queued tasks from a shared store directory"
    )
    worker_parser.add_argument(
        "--store", required=True, help="store directory shared with the fleet"
    )
    worker_parser.add_argument(
        "--drain",
        action="store_true",
        help="exit once the queue is empty instead of polling for new work",
    )
    worker_parser.add_argument(
        "--worker-id", default=None, help="stable worker identity (default: auto)"
    )
    worker_parser.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        help="seconds of heartbeat silence before a lease is reclaimed",
    )
    worker_parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="lease reclamations before a task is recorded as failed",
    )
    worker_parser.add_argument(
        "--poll-interval",
        type=float,
        default=1.0,
        help="seconds between queue polls when nothing is claimable",
    )
    worker_parser.add_argument(
        "--max-tasks",
        type=int,
        default=None,
        help="exit after completing this many tasks",
    )
    worker_parser.add_argument(
        "--telemetry",
        action="store_true",
        help=(
            "record span/counter telemetry and flush it to this worker's "
            "metric shard (telemetry/metrics-<id>.jsonl) after each task"
        ),
    )
    worker_parser.add_argument(
        "--flight-recorder",
        action="store_true",
        help=(
            "flight-record every task this worker executes (tasks submitted "
            "with --flight-recorder are recorded regardless); artifacts land "
            "under <store>/runs/<hash>/"
        ),
    )
    worker_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="R",
        help=(
            "checkpoint every task this worker executes at this round "
            "interval, overriding per-task intervals (tasks submitted with "
            "--checkpoint-every are checkpointed regardless); snapshots land "
            "under <store>/checkpoints/<hash>/"
        ),
    )

    status_parser = subparsers.add_parser(
        "status", help="show queue depth and worker liveness for a store"
    )
    status_parser.add_argument(
        "--store", required=True, help="store directory to inspect"
    )
    status_parser.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        help="liveness horizon: workers silent longer than this are shown dead",
    )
    status_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full fleet snapshot as JSON (same payload as /status)",
    )

    serve_parser = subparsers.add_parser(
        "serve",
        help=(
            "HTTP telemetry endpoint for a store: /status (JSON) and "
            "/metrics (Prometheus text), readable while a sweep drains"
        ),
    )
    serve_parser.add_argument(
        "--store", required=True, help="store directory to expose"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8321, help="bind port (default 8321)"
    )
    serve_parser.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        help="liveness horizon used for the worker-alive gauges",
    )

    checkpoints_parser = subparsers.add_parser(
        "checkpoints",
        help=(
            "list or prune resumable task checkpoints stored under "
            "<store>/checkpoints/"
        ),
    )
    checkpoints_parser.add_argument(
        "--store", required=True, help="store directory holding checkpoints/"
    )
    checkpoints_parser.add_argument(
        "--prune",
        action="store_true",
        help=(
            "remove checkpoints belonging to tasks the store already holds "
            "a successful record for (what 'compact' also does)"
        ),
    )
    checkpoints_parser.add_argument(
        "--prune-all",
        action="store_true",
        help="remove ALL checkpoints, including those of unfinished tasks",
    )
    checkpoints_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the checkpoint listing as JSON",
    )

    inspect_parser = subparsers.add_parser(
        "inspect",
        help=(
            "inspect flight-recorded runs of a store: without a key, list "
            "them; with a (prefix of a) task hash, print the per-run "
            "convergence / rewire-churn / topology-drift report"
        ),
    )
    inspect_parser.add_argument(
        "--store", required=True, help="store directory holding runs/"
    )
    inspect_parser.add_argument(
        "key",
        nargs="?",
        default=None,
        help="task content hash (any unique prefix) of the run to inspect",
    )
    inspect_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the run list / report as JSON",
    )

    trace_parser = subparsers.add_parser(
        "trace",
        help=(
            "run one simulation with span tracing enabled and export a "
            "Chrome-trace JSON loadable in chrome://tracing or Perfetto"
        ),
    )
    trace_parser.add_argument(
        "--out", required=True, help="output path for the trace JSON"
    )
    trace_parser.add_argument(
        "--protocol",
        default="perigee-subset",
        help="protocol registry name to run (default perigee-subset)",
    )
    trace_parser.add_argument(
        "--num-nodes", type=int, default=300, help="number of nodes"
    )
    trace_parser.add_argument(
        "--rounds", type=int, default=5, help="protocol rounds to trace"
    )
    trace_parser.add_argument(
        "--blocks", type=int, default=20, help="blocks mined per round"
    )
    trace_parser.add_argument("--seed", type=int, default=0, help="random seed")

    chaos_parser = subparsers.add_parser(
        "chaos",
        help=(
            "drain a real sweep through a worker fleet under a seeded "
            "fault schedule and assert the records are byte-identical to a "
            "fault-free serial run"
        ),
    )
    chaos_parser.add_argument(
        "experiment",
        nargs="?",
        default="figure5",
        choices=list(EXPERIMENT_SPECS),
        help="experiment to drain (default figure5)",
    )
    chaos_parser.add_argument(
        "--root",
        required=True,
        help="working directory (gains serial/ and chaos/ store dirs)",
    )
    chaos_parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seeds both the sweep and the fault schedule",
    )
    chaos_parser.add_argument(
        "--num-nodes", type=int, default=40, help="number of nodes"
    )
    chaos_parser.add_argument(
        "--rounds", type=int, default=2, help="protocol rounds"
    )
    chaos_parser.add_argument(
        "--repeats",
        type=int,
        default=1,
        help="independent latency draws (figure5 takes only 1)",
    )
    chaos_parser.add_argument(
        "--fleet",
        type=int,
        default=2,
        help="worker subprocesses kept alive while draining",
    )
    chaos_parser.add_argument(
        "--fires",
        type=int,
        default=3,
        help="fault rules per worker incarnation",
    )
    chaos_parser.add_argument(
        "--max-at",
        type=int,
        default=3,
        help=(
            "latest injection-point hit a rule may trigger on; small values "
            "make rules fire early in short drains"
        ),
    )
    chaos_parser.add_argument(
        "--actions",
        default=",".join(DEFAULT_CHAOS_ACTIONS),
        help=(
            "comma-separated fault actions to arm "
            f"(default {','.join(DEFAULT_CHAOS_ACTIONS)}; "
            "also available: skew)"
        ),
    )
    chaos_parser.add_argument(
        "--lease-ttl",
        type=float,
        default=4.0,
        help="queue lease TTL for the fault arm",
    )
    chaos_parser.add_argument(
        "--max-attempts",
        type=int,
        default=8,
        help="lease reclamations before a task is recorded as failed",
    )
    chaos_parser.add_argument(
        "--max-fault-incarnations",
        type=int,
        default=12,
        help="armed worker spawns before respawns run clean",
    )
    chaos_parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="R",
        help="also checkpoint every task at this round interval",
    )
    chaos_parser.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="hard wall-clock limit in seconds for the drain",
    )
    chaos_parser.add_argument(
        "--json",
        action="store_true",
        help="print the chaos report as JSON instead of a summary",
    )

    for name in EXPERIMENT_SPECS:
        experiment_parser = subparsers.add_parser(
            name, help=f"run the {name} experiment"
        )
        experiment_parser.set_defaults(experiment=name)
        experiment_parser.add_argument(
            "--num-nodes", type=int, default=300, help="number of nodes"
        )
        experiment_parser.add_argument(
            "--rounds", type=int, default=12, help="protocol rounds"
        )
        experiment_parser.add_argument(
            "--seed", type=int, default=0, help="random seed"
        )
        experiment_parser.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes for the protocol x repeat grid",
        )
        experiment_parser.add_argument(
            "--store",
            default=None,
            help="directory persisting raw task results (enables resume)",
        )
        experiment_parser.add_argument(
            "--cluster",
            action="store_true",
            help=(
                "drain the grid through the store's distributed work queue "
                "(requires --store); external 'perigee-sim worker' processes "
                "sharing the store cooperate on the tasks"
            ),
        )
        experiment_parser.add_argument(
            "--flight-recorder",
            action="store_true",
            help=(
                "persist a per-round flight-recorder trace of every task "
                "under <store>/runs/<hash>/ (requires --store); inspect "
                "with 'perigee-sim inspect'"
            ),
        )
        experiment_parser.add_argument(
            "--checkpoint-every",
            type=int,
            default=0,
            metavar="R",
            help=(
                "snapshot each adaptive task's simulation state every R "
                "rounds under <store>/checkpoints/<hash>/ (requires "
                "--store); interrupted tasks resume from the newest "
                "snapshot, bit-identical to an uninterrupted run"
            ),
        )
        experiment_parser.add_argument(
            "--repeats",
            type=int,
            default=1,
            help="independent latency draws to average over (figure5 takes only 1)",
        )
        if name == "scaling":
            _add_large_n_arguments(experiment_parser)
    return parser


def _add_large_n_arguments(parser: argparse.ArgumentParser) -> None:
    """Large-N knobs (scaling ladder / submit): backend + delay evaluation."""
    parser.add_argument(
        "--latency-memory",
        choices=("dense", "sparse"),
        default="dense",
        help=(
            "geographic latency backend: 'dense' precomputes the N x N "
            "matrix (bit-for-bit default), 'sparse' recomputes pairs on "
            "demand in O(N) memory — required past N ~ 20k"
        ),
    )
    parser.add_argument(
        "--eval-mode",
        choices=("auto", "exact", "sampled"),
        default=None,
        help=(
            "delay evaluation: 'exact' chunked all-sources Dijkstra, "
            "'sampled' hash-power-weighted source sampling with reported "
            "standard error, 'auto' (default) switches at the threshold"
        ),
    )
    parser.add_argument(
        "--eval-threshold",
        type=int,
        default=None,
        help="auto-mode switch point in number of sources (default 4096)",
    )
    parser.add_argument(
        "--eval-samples",
        type=int,
        default=None,
        help="sources drawn in sampled mode (default 512)",
    )
    parser.add_argument(
        "--eval-workers",
        type=int,
        default=None,
        help=(
            "process-parallel Dijkstra workers for exact (chunked) "
            "evaluation; results are bit-identical to the serial path "
            "(default 1)"
        ),
    )
    parser.add_argument(
        "--eval-target-se",
        type=float,
        default=None,
        metavar="MS",
        help=(
            "adaptive sampled mode: grow the sample (in --eval-samples "
            "batches, same deterministic stream) until every target's "
            "standard error is at most this many milliseconds"
        ),
    )


def _evaluation_params(args: argparse.Namespace) -> dict:
    """Collect non-default --eval-* flags into DelayEvaluator parameters."""
    params = {}
    if getattr(args, "eval_mode", None) is not None:
        params["mode"] = args.eval_mode
    if getattr(args, "eval_threshold", None) is not None:
        params["exact_threshold"] = args.eval_threshold
    if getattr(args, "eval_samples", None) is not None:
        params["sample_size"] = args.eval_samples
    if getattr(args, "eval_workers", None) is not None:
        params["workers"] = args.eval_workers
    if getattr(args, "eval_target_se", None) is not None:
        params["target_se_ms"] = args.eval_target_se
    return params


def _reject_unsupported_large_n_flags(
    parser: argparse.ArgumentParser, args: argparse.Namespace, experiment: str
) -> None:
    """Fail loudly when large-N flags would be silently dropped.

    Only the ``scaling`` grid threads them through today; accepting them on
    another experiment and queueing dense/exact tasks anyway would hand a
    worker fleet the exact memory wall the flags exist to avoid.
    """
    if experiment == "scaling":
        return
    if getattr(args, "latency_memory", "dense") != "dense" or _evaluation_params(
        args
    ):
        parser.error(
            "--latency-memory/--eval-* are only supported by the 'scaling' "
            f"experiment; {experiment!r} would ignore them"
        )


def _progress_printer(done: int, total: int, record) -> None:
    print(render_task_progress(done, total, record), file=sys.stderr)


def _run_resume(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    specs = store.load_specs()
    if not specs:
        print(f"no stored sweeps found in {store.directory}", file=sys.stderr)
        return 1
    if getattr(args, "cluster", False):
        from repro.runtime.cluster import ClusterExecutor

        executor = ClusterExecutor(store)
    else:
        executor = make_executor(args.workers)
    exit_code = 0
    for name, spec in specs.items():
        records = execute_sweep(
            spec, executor=executor, store=store, progress=_progress_printer
        )
        executed = sum(1 for record in records if not record.cached)
        cached = len(records) - executed
        print(f"sweep {name}: {executed} task(s) executed, {cached} from store")
        try:
            result = records_to_result(records, name=name)
        except RuntimeError:
            print(f"sweep {name} has failed tasks:", file=sys.stderr)
            print(render_failure_report(records), file=sys.stderr)
            exit_code = 1
            continue
        print(render_experiment_report(result))
    return exit_code


def _spec_kwargs(args: argparse.Namespace) -> dict:
    """Grid and execution-policy kwargs of ``build_experiment_specs``."""
    kwargs = {
        "num_nodes": args.num_nodes,
        "rounds": args.rounds,
        "seed": args.seed,
        "repeats": args.repeats,
    }
    if args.experiment == "scaling":
        kwargs["latency_memory"] = getattr(args, "latency_memory", "dense")
        evaluation = _evaluation_params(args)
        if evaluation:
            kwargs["evaluation"] = evaluation
    if getattr(args, "flight_recorder", False):
        kwargs["flight"] = True
    if getattr(args, "checkpoint_every", 0):
        kwargs["checkpoint_every"] = args.checkpoint_every
    return kwargs


def _experiment_specs(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> list[SweepSpec]:
    """The sweep specs of ``args``; a grid its builder rejects is a usage error."""
    try:
        return build_experiment_specs(args.experiment, **_spec_kwargs(args))
    except ValueError as error:
        parser.error(str(error))


def _run_submit(args: argparse.Namespace, specs: list[SweepSpec]) -> int:
    from repro.runtime.cluster import WorkQueue

    queue = WorkQueue(ResultStore(args.store))
    total_new = 0
    total_tasks = 0
    for spec in specs:
        enqueued = queue.submit(spec)
        total_new += enqueued
        total_tasks += spec.num_tasks
        print(f"sweep {spec.name}: enqueued {enqueued}/{spec.num_tasks} task(s)")
    skipped = total_tasks - total_new
    print(
        f"{total_new} task(s) queued in {queue.store.directory} "
        f"({skipped} already completed or queued); start workers with: "
        f"perigee-sim worker --store {args.store}"
    )
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    from repro.runtime.cluster import Worker

    worker = Worker(
        ResultStore(args.store),
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        poll_interval=args.poll_interval,
        telemetry=args.telemetry,
        flight=args.flight_recorder,
        checkpoint_every=args.checkpoint_every,
    )
    print(f"worker {worker.worker_id} draining {args.store}", file=sys.stderr)

    def on_record(record) -> None:
        status = "ok" if record.ok else "FAILED"
        print(
            f"[{worker.worker_id}] {record.task.protocol} "
            f"repeat={record.task.repeat} {status} ({record.duration_s:.1f}s)",
            file=sys.stderr,
        )

    try:
        completed = worker.run(
            drain=args.drain, max_tasks=args.max_tasks, on_record=on_record
        )
    except KeyboardInterrupt:
        print(f"worker {worker.worker_id} interrupted", file=sys.stderr)
        return 130
    except RuntimeError as error:  # e.g. duplicate live --worker-id
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"worker {worker.worker_id} completed {completed} task(s)")
    return 0


def _run_compact(args: argparse.Namespace) -> int:
    store = ResultStore(args.store)
    outcome = store.compact()
    print(
        f"compacted {store.directory}: {outcome.records} record(s) in "
        f"results.jsonl ({outcome.lines_before} line(s) read, "
        f"{outcome.shards_removed} shard file(s) removed, "
        f"{outcome.checkpoints_removed} stale checkpoint dir(s) removed)"
    )
    return 0


def _run_checkpoints(args: argparse.Namespace) -> int:
    import json

    from repro.runtime.checkpoint import list_checkpoints, prune_checkpoints

    store = ResultStore(args.store)
    entries = list_checkpoints(store.directory)
    if args.prune_all:
        removed = prune_checkpoints(store.directory)
        print(f"removed {removed} checkpoint dir(s) from {store.directory}")
        return 0
    if args.prune:
        completed = {
            key for key, record in store.load().items() if record.ok
        }
        stale = [entry for entry in entries if entry["key"] in completed]
        removed = (
            prune_checkpoints(
                store.directory, keys={entry["key"] for entry in stale}
            )
            if stale
            else 0
        )
        kept = len(entries) - removed
        print(
            f"removed {removed} completed task checkpoint dir(s), "
            f"{kept} resumable task(s) kept"
        )
        return 0
    if args.json:
        print(json.dumps(entries, sort_keys=True, indent=2))
        return 0
    if not entries:
        print(f"no checkpoints under {store.directory}/checkpoints")
        return 0
    for entry in entries:
        print(
            f"{entry['key'][:12]}  round={entry['round']}  "
            f"snapshots={entry['snapshots']}  "
            f"{entry['bytes'] / 1024:.1f} KiB  "
            f"age={entry['age_s']:.0f}s"
        )
    return 0


def _run_status(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry.fleet import fleet_status, render_status_text

    payload = fleet_status(ResultStore(args.store), lease_ttl=args.lease_ttl)
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(render_status_text(payload))
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from repro.telemetry.serve import serve_forever

    try:
        serve_forever(
            ResultStore(args.store),
            host=args.host,
            port=args.port,
            lease_ttl=args.lease_ttl,
        )
    except KeyboardInterrupt:
        return 130
    return 0


def _run_inspect(args: argparse.Namespace) -> int:
    import json

    from repro.telemetry.flight import (
        flight_report,
        list_runs,
        render_flight_report,
        resolve_run_dir,
        runs_dir,
    )

    store = ResultStore(args.store)
    if args.key is None:
        runs = list_runs(store.directory)
        if args.json:
            print(json.dumps(runs, sort_keys=True, indent=2))
            return 0
        if not runs:
            print(f"no recorded runs under {runs_dir(store.directory)}")
            return 0
        for entry in runs:
            state = "closed" if entry["closed"] else "open"
            print(
                f"{entry['key'][:12]}  {entry['experiment'] or '?'} / "
                f"{entry['protocol'] or '?'}  repeat={entry['repeat']}  "
                f"rounds={entry['rounds_recorded']}  ({state})"
            )
        return 0
    try:
        run_dir = resolve_run_dir(store.directory, args.key)
        report = flight_report(run_dir)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(render_flight_report(report))
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.runtime.chaos import run_chaos

    actions = tuple(
        action.strip() for action in args.actions.split(",") if action.strip()
    )
    try:
        report = run_chaos(
            args.root,
            experiment=args.experiment,
            seed=args.seed,
            num_nodes=args.num_nodes,
            rounds=args.rounds,
            repeats=args.repeats,
            workers=args.fleet,
            fires=args.fires,
            max_at=args.max_at,
            actions=actions,
            lease_ttl=args.lease_ttl,
            max_attempts=args.max_attempts,
            max_fault_incarnations=args.max_fault_incarnations,
            checkpoint_every=args.checkpoint_every,
            timeout_s=args.timeout,
            log=lambda message: print(message, file=sys.stderr),
        )
    except (RuntimeError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    else:
        verdict = "IDENTICAL" if report.identical else "MISMATCH"
        print(
            f"chaos {report.experiment} seed={report.seed}: {verdict} — "
            f"{report.tasks} task(s), {report.incarnations} worker "
            f"incarnation(s), {report.crash_exits} injected crash(es), "
            f"{int(report.io_retries)} absorbed IO retr(ies), "
            f"{report.quarantined} quarantined line(s) in "
            f"{report.duration_s:.1f}s"
        )
        if report.mismatched_keys:
            print(f"mismatched keys: {', '.join(report.mismatched_keys)}")
        if report.missing_keys:
            print(f"missing keys: {', '.join(report.missing_keys)}")
    return 0 if report.identical else 1


def _run_trace(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.config import default_config
    from repro.core.simulator import Simulator
    from repro.protocols.registry import make_protocol
    from repro.telemetry.chrome import write_chrome_trace
    from repro.telemetry.recorder import MetricsRecorder, use_recorder

    config = default_config(
        num_nodes=args.num_nodes,
        rounds=args.rounds,
        blocks_per_round=args.blocks,
        seed=args.seed,
    )
    simulator = Simulator(
        config, make_protocol(args.protocol), rng=np.random.default_rng(config.seed)
    )
    recorder = MetricsRecorder(trace=True)
    with use_recorder(recorder):
        simulator.run(rounds=args.rounds)
    count = write_chrome_trace(args.out, recorder.trace)
    print(
        f"wrote {count} span event(s) to {args.out}; load in "
        "chrome://tracing or https://ui.perfetto.dev"
    )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    # Arm the process-wide fault plane when PERIGEE_FAULT_PLAN is set —
    # this is how `perigee-sim chaos` injects faults into the worker
    # subprocesses it spawns.  A no-op (null plane) when the var is unset.
    install_fault_plane_from_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 1
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be a positive integer")
    if getattr(args, "checkpoint_every", 0) < 0:
        parser.error("--checkpoint-every must be non-negative")
    if args.command == "list":
        for name in EXPERIMENT_SPECS:
            print(name)
        return 0
    if args.command == "resume":
        if args.cluster and args.workers > 1:
            parser.error(
                "--cluster and --workers are mutually exclusive; scale a "
                "cluster resume by starting extra 'perigee-sim worker' "
                "processes"
            )
        return _run_resume(args)
    if args.command == "submit":
        # Direct experiment subcommands only define the large-N flags where
        # they are supported; submit defines them for all experiments, so
        # guard against silently dropping them here.
        _reject_unsupported_large_n_flags(parser, args, args.experiment)
        return _run_submit(args, _experiment_specs(parser, args))
    if args.command == "compact":
        return _run_compact(args)
    if args.command == "checkpoints":
        return _run_checkpoints(args)
    if args.command == "worker":
        return _run_worker(args)
    if args.command == "status":
        return _run_status(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "inspect":
        return _run_inspect(args)
    if args.command == "chaos":
        return _run_chaos(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.cluster and args.store is None:
        parser.error("--cluster requires --store (the queue lives inside it)")
    if args.flight_recorder and args.store is None:
        parser.error(
            "--flight-recorder requires --store (runs/ artifacts live inside it)"
        )
    if args.checkpoint_every and args.store is None:
        parser.error(
            "--checkpoint-every requires --store (checkpoints/ lives inside it)"
        )
    if args.cluster and args.workers > 1:
        parser.error(
            "--cluster and --workers are mutually exclusive; scale a cluster "
            "run by starting extra 'perigee-sim worker' processes"
        )
    _experiment_specs(parser, args)  # reject a bad grid before any work runs
    result = run_experiment(
        args.experiment,
        workers=args.workers,
        store=args.store,
        progress=(
            _progress_printer
            if args.workers > 1 or args.store is not None
            else None
        ),
        cluster=args.cluster,
        **_spec_kwargs(args),
    )
    if isinstance(result, ProcessingDelaySweepResult):
        print("Figure 4(a) validation-delay sweep")
        print(render_sweep_report(result))
    elif isinstance(result, NetworkScalingResult):
        print("Network-size scaling study (large-network scenario)")
        print(render_scaling_report(result))
    else:
        print(render_experiment_report(result))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via the console script
    sys.exit(main())
