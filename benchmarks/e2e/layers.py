"""Per-layer tracing for the end-to-end benchmark, installed from outside ``src/``.

The program keeps its own telemetry spans (``round.*``, ``task.checkpoint``)
and counters (``engine.*``, ``queue.*``, ``io.*``).  The layers those spans
do not separate -- the whole task, Perigee scoring, the rewire primitives,
population and latency construction, the final evaluation -- are timed here
by wrapping the public function of each layer at class or module level.  The
wrappers record spans named ``bench.*`` into whatever
:class:`~repro.telemetry.recorder.MetricsRecorder` is active, so a workload
process reads them from its own recorder and a ``perigee-sim worker
--telemetry`` process writes them into its telemetry shard like any other
span.  Wrappers only exist inside traced benchmark processes; untraced runs
execute the program unmodified.

Run as a module, this file is a traced drop-in for ``perigee-sim``::

    python -m benchmarks.e2e.layers worker --store DIR --drain --telemetry
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Mapping

from repro.core.network import P2PNetwork
from repro.core.simulator import Simulator
from repro.latency.geo import GeographicLatencyModel
from repro.metrics.evaluator import DelayEvaluator
from repro.protocols.perigee import (
    PerigeeBase,
    PerigeeSubsetProtocol,
    PerigeeUCBProtocol,
    PerigeeVanillaProtocol,
)
from repro.runtime import executor as executor_module
from repro.runtime import scenarios as scenarios_module
from repro.runtime.cluster.queue import WorkQueue
from repro.runtime.cluster.worker import Worker
from repro.runtime.executor import SerialExecutor, run_task
from repro.runtime.store import ResultStore
from repro.telemetry import fleet as fleet_module
from repro.telemetry.flight import FlightRecorder
from repro.telemetry.recorder import get_recorder


class Tracer:
    """Installs and removes the benchmark's layer wrappers in this process.

    ``install_simulation`` covers everything a task executes (span wrappers
    feeding the active recorder); ``install_status`` covers the read path of
    ``fleet_status`` and keeps one duration per call in :attr:`samples`,
    because medians need the individual calls, not span totals.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._round_depth = 0
        self._update_depth = 0
        self._undo: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def _patch(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        wrapper = functools.wraps(original)(make(original))
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install_simulation(self) -> None:
        span = self._span
        # A task is the whole run function an executor or worker calls,
        # flight-recorder open/close and checkpoint cleanup included.
        self._patch(SerialExecutor, "map", self._serial_map)
        self._patch(Worker, "__init__", self._worker_init)
        self._patch(Simulator, "run_round", self._round)
        self._patch(PerigeeBase, "update", self._update)
        for variant in (
            PerigeeSubsetProtocol,
            PerigeeUCBProtocol,
            PerigeeVanillaProtocol,
        ):
            self._patch(
                variant, "select_retained_block", span("bench.protocols.select")
            )
        # The rewire primitives also build the initial topology; only calls
        # made by the round update belong to the update layer.
        for name in ("replace_outgoing", "fill_random_outgoing"):
            self._patch(
                P2PNetwork, name, span(f"bench.core.{name}", in_update=True)
            )
        # The scenario module calls the population generator through its
        # own global, which is the name run_task reaches.
        self._patch(
            scenarios_module,
            "generate_population",
            span("bench.datasets.population"),
        )
        self._patch(
            GeographicLatencyModel, "__init__", span("bench.latency.build")
        )
        self._patch(
            GeographicLatencyModel, "pairwise", span("bench.latency.pairwise")
        )
        self._patch(Simulator, "__init__", span("bench.core.simulator_init"))
        self._patch(DelayEvaluator, "evaluate", self._final_evaluate)
        for name in ("__init__", "record_final", "close"):
            self._patch(FlightRecorder, name, span("bench.telemetry.flight_io"))
        for name in ("latest_checkpoint", "clear_task_checkpoints"):
            self._patch(
                executor_module, name, span("bench.runtime.checkpoint_io")
            )

    def install_status(self) -> None:
        self._patch(ResultStore, "iter_records", self._store_scan)
        self._patch(WorkQueue, "status", self._sample("queue_status"))
        self._patch(
            fleet_module, "load_worker_snapshots", self._sample("shards_load")
        )
        self._patch(
            fleet_module, "merge_snapshots", self._sample("shards_merge")
        )

    # ------------------------------------------------------------------ #
    # Wrapper factories
    # ------------------------------------------------------------------ #
    def _span(self, name: str, in_update: bool = False):
        def make(original):
            def wrapper(*args, **kwargs):
                if in_update and not self._update_depth:
                    return original(*args, **kwargs)
                with get_recorder().span(name):
                    return original(*args, **kwargs)

            return wrapper

        return make

    def _task_span(self, run):
        def timed_run(task):
            with get_recorder().span("bench.runtime.task"):
                return run(task)

        return timed_run

    def _serial_map(self, original):
        def wrapper(executor, tasks, run=run_task, progress=None):
            return original(executor, tasks, self._task_span(run), progress)

        return wrapper

    def _worker_init(self, original):
        def wrapper(worker, *args, **kwargs):
            original(worker, *args, **kwargs)
            worker.run_function = self._task_span(worker.run_function)

        return wrapper

    def _round(self, original):
        def wrapper(*args, **kwargs):
            self._round_depth += 1
            try:
                with get_recorder().span("bench.core.round"):
                    return original(*args, **kwargs)
            finally:
                self._round_depth -= 1

        return wrapper

    def _update(self, original):
        def wrapper(*args, **kwargs):
            self._update_depth += 1
            try:
                return original(*args, **kwargs)
            finally:
                self._update_depth -= 1

        return wrapper

    def _final_evaluate(self, original):
        # Evaluations inside a round belong to the flight recorder; the
        # metrics layer is the final evaluation run_task makes after them.
        def wrapper(*args, **kwargs):
            if self._round_depth:
                return original(*args, **kwargs)
            recorder = get_recorder()
            with recorder.span("bench.metrics.evaluate"):
                evaluation = original(*args, **kwargs)
            recorder.incr(
                "bench.metrics.dijkstra_sources",
                len(set(evaluation.source_ids.tolist())),
            )
            return evaluation

        return wrapper

    def _sample(self, name: str):
        samples = self.samples[name]

        def make(original):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    samples.append(time.perf_counter() - start)

            return wrapper

        return make

    def _store_scan(self, original):
        # iter_records is a generator: time only the store's own work inside
        # each next(), not the caller's work between records.
        samples = self.samples["store_scan"]

        def wrapper(*args, **kwargs):
            inner = original(*args, **kwargs)
            busy = 0.0
            try:
                while True:
                    start = time.perf_counter()
                    try:
                        record = next(inner)
                    except StopIteration:
                        busy += time.perf_counter() - start
                        return
                    busy += time.perf_counter() - start
                    yield record
            finally:
                samples.append(busy)

        return wrapper


# ---------------------------------------------------------------------- #
# Per-layer metrics from merged telemetry
# ---------------------------------------------------------------------- #
def _by_name(entries: Mapping[str, Any], name: str) -> list[Any]:
    """Values of every ``name|tag=...`` key (tags are summed over)."""
    return [value for key, value in entries.items() if key.partition("|")[0] == name]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_ms(values: list[float]) -> float:
    return 1e3 * statistics.median(values) if values else 0.0


def derive_layers(
    totals: Mapping[str, Any],
    samples: Mapping[str, list[float]] | None = None,
    status_calls: int = 0,
    worker_wall_s: float = 0.0,
    submit_s: float = 0.0,
) -> dict[str, float]:
    """Per-layer metrics from a ``{"counters", "spans"}`` snapshot.

    ``totals`` is a recorder snapshot or a merged set of worker shards;
    ``samples`` holds the driver-side per-call durations of
    :meth:`Tracer.install_status`.  Layers a workload does not exercise
    read 0.
    """
    spans = totals.get("spans", {})
    counters = totals.get("counters", {})
    samples = samples or {}

    def seconds(name: str) -> float:
        return sum(stats["total_s"] for stats in _by_name(spans, name))

    def calls(name: str) -> float:
        return sum(stats["count"] for stats in _by_name(spans, name))

    def count(name: str) -> float:
        return sum(_by_name(counters, name))

    update = seconds("round.update")
    select = seconds("bench.protocols.select")
    replace = seconds("bench.core.replace_outgoing")
    fill = seconds("bench.core.fill_random_outgoing")
    rounds = seconds("bench.core.round")
    task_run = seconds("bench.runtime.task")
    flight_round = seconds("round.flight")
    flight_io = seconds("bench.telemetry.flight_io")
    checkpoint = seconds("task.checkpoint") + seconds("bench.runtime.checkpoint_io")
    population = seconds("bench.datasets.population")
    latency_build = seconds("bench.latency.build")
    simulator_init = seconds("bench.core.simulator_init")
    evaluate = seconds("bench.metrics.evaluate")
    round_parts = (
        seconds("round.mine")
        + seconds("round.propagate")
        + seconds("round.observe")
        + update
        + flight_round
    )
    task_parts = (
        population
        + latency_build
        + simulator_init
        + rounds
        + evaluate
        + checkpoint
        + flight_io
    )
    graph_reuse = count("engine.graph_cache.hit") + count("engine.graph_cache.patched")
    sssp_repaired = count("engine.sssp_repaired")
    shards = [
        load + merge
        for load, merge in zip(
            samples.get("shards_load", []), samples.get("shards_merge", [])
        )
    ]
    return {
        "protocols.select_s": select,
        "protocols.select_calls": calls("bench.protocols.select"),
        "protocols.update_s": update,
        "protocols.update_self_s": update - select - replace - fill,
        "core.replace_outgoing_s": replace,
        "core.replace_outgoing_calls": calls("bench.core.replace_outgoing"),
        "core.mine_s": seconds("round.mine"),
        "core.propagate_s": seconds("round.propagate"),
        "core.propagate_blocks": count("engine.propagate_blocks"),
        "core.observe_s": seconds("round.observe"),
        "core.edges_observed": count("round.edges_observed"),
        "core.round_s": rounds,
        "core.graph_cache_reuse_ratio": _ratio(
            graph_reuse, graph_reuse + count("engine.graph_cache.miss")
        ),
        "core.sssp_repair_ratio": _ratio(
            sssp_repaired,
            count("engine.sssp_hit") + sssp_repaired + count("engine.sssp_rebuilt"),
        ),
        "core.simulator_init_s": simulator_init,
        "datasets.population_s": population,
        "latency.build_s": latency_build,
        "latency.pairwise_s": seconds("bench.latency.pairwise"),
        "latency.pairwise_calls": calls("bench.latency.pairwise"),
        "metrics.evaluate_s": evaluate,
        "metrics.dijkstra_sources": count("bench.metrics.dijkstra_sources"),
        "runtime.submit_s": submit_s,
        "runtime.task_run_s": task_run,
        "runtime.worker_overhead_s": (
            worker_wall_s - task_run if worker_wall_s else 0.0
        ),
        "runtime.checkpoint_s": checkpoint,
        "runtime.checkpoints_written": count("task.checkpoints_written"),
        "runtime.queue_claims": count("queue.claims"),
        "runtime.worker_polls": count("worker.polls"),
        "runtime.io_retries": count("io.retries"),
        "runtime.io_gave_up": count("io.gave_up"),
        "runtime.store_quarantined": count("store.quarantined"),
        "runtime.store_load_calls_per_status": _ratio(
            len(samples.get("store_scan", [])), status_calls
        ),
        "runtime.store_load_ms_p50": _median_ms(samples.get("store_scan", [])),
        "runtime.queue_status_ms_p50": _median_ms(samples.get("queue_status", [])),
        "telemetry.flight_s": flight_round + flight_io,
        "telemetry.shards_load_ms_p50": _median_ms(shards),
        "trace.round_coverage_pct": 100.0 * _ratio(round_parts, rounds),
        "trace.task_coverage_pct": 100.0 * _ratio(task_parts, task_run),
    }


def main(argv: list[str]) -> int:
    """``perigee-sim`` with the simulation wrappers installed."""
    # Imported here: workload processes import this module for the tracer
    # alone, and the CLI's imports would add to their measured set-up time.
    from repro.cli import main as cli_main

    Tracer().install_simulation()
    return cli_main(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
