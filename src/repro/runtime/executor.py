"""Task execution: serial and process-pool parallel executors.

:func:`run_task` is the single function both executors run — it rebuilds the
task's environment from its seeds, runs the protocol, and returns a
:class:`TaskRecord`.  Because the function is deterministic and every task
carries its own spawned seed streams, ``ParallelExecutor`` produces
bit-for-bit the same records as ``SerialExecutor``.

Failure isolation: ``run_task`` converts any exception into a ``"failed"``
record carrying the traceback, so one crashed cell never kills the sweep;
the aggregation layer decides how to surface failures.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Callable, Protocol, Sequence

import numpy as np

from repro.core.simulator import Simulator
from repro.metrics.evaluator import DelayEvaluator
from repro.metrics.topology import edge_latency_histogram
from repro.protocols.registry import make_protocol
from repro.runtime.checkpoint import (
    clear_task_checkpoints,
    latest_checkpoint,
    task_checkpoint_dir,
    write_checkpoint,
)
from repro.runtime.scenarios import get_scenario
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec, Task, TaskRecord
from repro.telemetry.flight import (
    FlightRecorder,
    flight_run_dir,
    use_flight_recorder,
)
from repro.telemetry.recorder import get_recorder

#: ``progress(done, total, record)`` — called after every completed task.
ProgressCallback = Callable[[int, int, TaskRecord], None]

#: Signature of the per-task work function executors run.
RunFunction = Callable[[Task], TaskRecord]


def _histogram_payload(histogram) -> dict:
    return {
        "protocol": histogram.protocol,
        "bin_edges_ms": [float(x) for x in histogram.bin_edges_ms],
        "counts": [int(x) for x in histogram.counts],
        "mean_ms": float(histogram.mean_ms),
        "median_ms": float(histogram.median_ms),
        "low_mode_fraction": float(histogram.low_mode_fraction),
    }


def run_task(
    task: Task,
    flight_store: str | os.PathLike | None = None,
    force_flight: bool = False,
    checkpoint_store: str | os.PathLike | None = None,
    checkpoint_every: int | None = None,
) -> TaskRecord:
    """Execute one task and return its record (never raises).

    Parameters
    ----------
    task:
        The task to run.
    flight_store:
        Store directory under which flight-recorder artifacts land
        (``<flight_store>/runs/<hash>/``).  Recording happens only when this
        is set *and* the task asks for it (``task.flight``, or
        ``force_flight`` from a ``worker --flight-recorder`` override);
        recording never changes the returned record.
    force_flight:
        Flight-record even when ``task.flight`` is unset.
    checkpoint_store:
        Store directory under which periodic simulator checkpoints land
        (``<checkpoint_store>/checkpoints/<hash>/``).  Checkpointing happens
        only when this is set and the effective interval is positive.  If
        the directory already holds a snapshot for this task (a previous
        attempt was interrupted), execution resumes from it — bit-identical
        to an uninterrupted run — instead of restarting at round zero.
        Checkpoints are removed once the task succeeds.
    checkpoint_every:
        Override of ``task.checkpoint_every`` (``None`` keeps the task's
        value; a ``worker --checkpoint-every`` override passes a positive
        interval here).
    """
    start = time.perf_counter()
    key = task.content_hash()
    recorder = get_recorder()
    flight: FlightRecorder | None = None
    try:
        if (task.flight or force_flight) and flight_store is not None:
            flight = FlightRecorder(
                flight_run_dir(flight_store, key),
                meta={"key": key, "task": task.to_dict()},
            )
        scope = (
            use_flight_recorder(flight)
            if flight is not None
            else contextlib.nullcontext()
        )
        with scope, recorder.span(
            "task.run", protocol=task.protocol, experiment=task.experiment
        ):
            config = task.config
            scenario = get_scenario(task.scenario)
            params = task.scenario_params
            env_rng = np.random.default_rng(task.environment_seed())
            population = scenario.build_population(config, params, env_rng)
            latency = scenario.build_latency(config, population, params, env_rng)
            protocol = make_protocol(task.protocol)
            evaluator = DelayEvaluator.from_params(task.evaluation_params)
            simulator = Simulator(
                config=config,
                protocol=protocol,
                population=population,
                latency=latency,
                rng=np.random.default_rng(task.protocol_seed()),
                delay_evaluator=evaluator,
            )
            effective_every = (
                task.checkpoint_every
                if checkpoint_every is None
                else checkpoint_every
            )
            checkpoint_dir = None
            if (
                protocol.is_adaptive
                and checkpoint_store is not None
                and effective_every > 0
            ):
                checkpoint_dir = task_checkpoint_dir(checkpoint_store, key)

                def restore(state: dict) -> None:
                    # A snapshot that does not load must never poison the
                    # run: load_state_dict puts the fresh state back, and
                    # latest_checkpoint tries the next-older snapshot.
                    try:
                        simulator.load_state_dict(state)
                    except ValueError:
                        recorder.incr(
                            "task.checkpoint_invalid", protocol=task.protocol
                        )
                        raise

                # Called through this module's global, so a tracer that
                # patches the name here sees the read.
                if latest_checkpoint(checkpoint_dir, load=restore) is not None:
                    recorder.incr("task.resumed", protocol=task.protocol)
            if protocol.is_adaptive:
                # One run() per checkpoint interval; a restored simulator
                # skips the stops it has already passed.  No snapshot after
                # the final round: the record itself is about to persist,
                # making the checkpoint dead weight.
                every = task.rounds if checkpoint_dir is None else effective_every
                for stop in range(every, task.rounds, every):
                    if stop <= simulator.rounds_completed:
                        continue
                    simulator.run(stop)
                    with recorder.span("task.checkpoint", protocol=task.protocol):
                        write_checkpoint(checkpoint_dir, simulator.state_dict())
                    recorder.incr(
                        "task.checkpoints_written", protocol=task.protocol
                    )
                simulator.run(task.rounds)
            # One evaluation pass covers both targets: the chunked (or
            # sampled) Dijkstra passes are shared, only the reach
            # computation differs.
            evaluation = evaluator.evaluate(
                simulator.engine,
                simulator.network,
                population.hash_power,
                target_fractions=(config.hash_power_target, 0.5),
            )
            reach90 = evaluation.reach(config.hash_power_target)
            reach50 = evaluation.reach(0.5)
            if flight is not None:
                flight.record_final(reach90=reach90, reach50=reach50)
            histogram = None
            if task.collect_histogram:
                histogram = _histogram_payload(
                    edge_latency_histogram(
                        simulator.network, latency, task.protocol
                    )
                )
        recorder.incr("task.ok", protocol=task.protocol)
        # A finished task's snapshots are dead weight; failed tasks keep
        # theirs so a retry resumes instead of restarting.
        if checkpoint_store is not None:
            clear_task_checkpoints(checkpoint_store, key)
        return TaskRecord(
            key=key,
            task=task,
            status="ok",
            duration_s=time.perf_counter() - start,
            reach90=[float(x) for x in reach90],
            reach50=[float(x) for x in reach50],
            histogram=histogram,
            evaluation=evaluation.to_metadata() if evaluation.sampled else None,
        )
    except Exception as error:  # noqa: BLE001 - failure isolation by design
        recorder.incr("task.failed", protocol=task.protocol)
        return TaskRecord(
            key=key,
            task=task,
            status="failed",
            error=f"{type(error).__name__}: {error}\n{traceback.format_exc()}",
            duration_s=time.perf_counter() - start,
        )
    finally:
        # Close even on failure: the incremental rounds.jsonl prefix plus a
        # summary make a crashed run inspectable.
        if flight is not None:
            flight.close()


def _failure_record(task: Task, error: BaseException) -> TaskRecord:
    return TaskRecord(
        key=task.content_hash(),
        task=task,
        status="failed",
        error=f"{type(error).__name__}: {error}",
    )


class Executor(Protocol):
    """Common executor interface (structural, for typing only)."""

    def map(
        self,
        tasks: Sequence[Task],
        run: RunFunction = run_task,
        progress: ProgressCallback | None = None,
    ) -> list[TaskRecord]: ...


def make_executor(workers: int) -> "SerialExecutor | ParallelExecutor":
    """Resolve a worker count to an executor (1 = serial in-process)."""
    if workers < 1:
        raise ValueError("workers must be positive")
    return ParallelExecutor(workers=workers) if workers > 1 else SerialExecutor()


class SerialExecutor:
    """Run tasks one after another in the current process."""

    workers = 1

    def map(
        self,
        tasks: Sequence[Task],
        run: RunFunction = run_task,
        progress: ProgressCallback | None = None,
    ) -> list[TaskRecord]:
        records: list[TaskRecord] = []
        for index, task in enumerate(tasks):
            try:
                record = run(task)
            except Exception as error:  # noqa: BLE001 - custom run functions
                record = _failure_record(task, error)
            records.append(record)
            if progress is not None:
                progress(index + 1, len(tasks), record)
        return records


class ParallelExecutor:
    """Run tasks across a pool of worker processes.

    Tasks and the ``run`` function must be picklable — :func:`run_task` and
    the declarative :class:`Task` model are; closure-based scenario overrides
    are not (use :class:`SerialExecutor` for those).

    Parameters
    ----------
    workers:
        Pool size; defaults to ``os.cpu_count()``.
    mp_context:
        Optional ``multiprocessing`` context (e.g. to force ``spawn``).
    """

    def __init__(self, workers: int | None = None, mp_context=None) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be positive")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self._mp_context = mp_context

    def map(
        self,
        tasks: Sequence[Task],
        run: RunFunction = run_task,
        progress: ProgressCallback | None = None,
    ) -> list[TaskRecord]:
        if not tasks:
            return []
        records: list[TaskRecord | None] = [None] * len(tasks)
        done_count = 0
        future_index: dict = {}
        outstanding: set = set()

        def harvest(future) -> TaskRecord:
            index = future_index[future]
            try:
                record = future.result()
            except BaseException as error:  # noqa: BLE001 - pool crashes; also
                # KeyboardInterrupt raised inside a child (group-wide SIGINT)
                # surfaces through the future and must not abort the salvage
                # loop below — it becomes a failed record, retried on resume.
                record = _failure_record(tasks[index], error)
            records[index] = record
            return record

        pool = ProcessPoolExecutor(
            max_workers=min(self.workers, len(tasks)),
            mp_context=self._mp_context,
        )
        try:
            future_index = {
                pool.submit(run, task): index for index, task in enumerate(tasks)
            }
            outstanding = set(future_index)
            while outstanding:
                finished, _ = wait(outstanding, return_when=FIRST_COMPLETED)
                for future in finished:
                    # Remove before invoking the callback: if the callback
                    # raises, the record was already delivered once (and
                    # persisted, when a store is attached) so the interrupt
                    # path below must not deliver it again.
                    outstanding.discard(future)
                    record = harvest(future)
                    done_count += 1
                    if progress is not None:
                        progress(done_count, len(tasks), record)
            pool.shutdown()
        except BaseException:
            # Interrupted (typically KeyboardInterrupt in ``wait``): salvage
            # every future that already finished so its record still reaches
            # the progress callback — and therefore the result store — then
            # cancel everything that never started and re-raise without
            # waiting for in-flight tasks.  An interrupted sweep with a
            # store is resumable with no finished work lost.
            for future in outstanding:
                if future.done() and not future.cancelled():
                    record = harvest(future)
                    done_count += 1
                    if progress is not None:
                        try:
                            progress(done_count, len(tasks), record)
                        except BaseException:  # noqa: BLE001 - already unwinding
                            pass
                else:
                    future.cancel()
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        return [record for record in records if record is not None]


def execute_sweep(
    spec: SweepSpec,
    executor: Executor | None = None,
    store: ResultStore | None = None,
    progress: ProgressCallback | None = None,
    run: RunFunction = run_task,
) -> list[TaskRecord]:
    """Expand a sweep, execute missing tasks, and return records in task order.

    When a store is given the spec is persisted (so ``perigee-sim resume``
    can rebuild it), previously completed tasks are served from the store
    (marked ``cached=True``), and newly produced records — including
    failures — are appended.  Interrupting and re-running with the same
    store therefore completes only the missing tasks.

    Flight recording: with a store attached, the default run function gains
    the store directory as its artifact root, so tasks flagged
    ``flight=True`` (``SweepSpec(flight=True)`` / ``--flight-recorder``)
    persist per-round traces under ``<store>/runs/``.  The partial is
    picklable and flows unchanged through the parallel and cluster
    executors.  Note that cached tasks are served from the store without
    re-executing, so they produce no fresh artifact.
    """
    executor = executor if executor is not None else SerialExecutor()
    if store is not None and run is run_task:
        run = functools.partial(
            run_task,
            flight_store=store.directory,
            checkpoint_store=store.directory,
        )
    tasks = spec.expand()
    cached: dict[str, TaskRecord] = {}
    if store is not None:
        store.save_spec(spec)
        existing = store.load()
        for task in tasks:
            record = existing.get(task.content_hash())
            if record is not None and record.ok:
                cached[record.key] = record.mark_cached()
    pending = [task for task in tasks if task.content_hash() not in cached]
    if cached:
        # Cache-hit tagging: served-from-store cells, by originating sweep.
        get_recorder().incr("task.cached", len(cached), experiment=spec.name)

    # Progress counts the whole grid: cached records are reported first so
    # the user sees "[k/total] ... (store)" lines, then live tasks continue
    # the count.
    if progress is not None:
        for done, record in enumerate(cached.values(), start=1):
            progress(done, len(tasks), record)

    # Executors that persist completions themselves (the cluster path
    # appends every record to a worker shard) opt out of the coordinator
    # append, which would otherwise duplicate each record in results.jsonl.
    self_persisting = getattr(executor, "persists_records", False)

    def on_complete(done: int, total: int, record: TaskRecord) -> None:
        # Persist immediately so a killed sweep keeps every finished task.
        if store is not None and not self_persisting:
            store.append(record)
        if progress is not None:
            progress(done + len(cached), len(tasks), record)

    fresh = executor.map(pending, run=run, progress=on_complete)
    by_key = dict(cached)
    by_key.update({record.key: record for record in fresh})
    return [by_key[task.content_hash()] for task in tasks]
