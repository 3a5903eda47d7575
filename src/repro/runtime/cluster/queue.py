"""Durable on-disk work queue with lease/heartbeat semantics.

The queue lives inside a result-store directory, so any number of worker
processes — on one machine or many machines sharing the directory over a
network filesystem — can cooperatively drain a sweep with no coordinator
process.  Layout::

    <store>/cluster/
        tasks/<hash>.json     # queued task descriptions (atomic tmp+rename)
        leases/<hash>.lease   # claim files; mtime doubles as the heartbeat
        workers/<id>.json     # worker registrations; mtime = liveness beacon

Correctness rests on three filesystem primitives:

* ``os.open(..., O_CREAT | O_EXCL)`` — claiming a task creates its lease
  file exclusively, so exactly one worker wins a race for a task;
* ``os.rename`` — reclaiming a stale lease first renames it to a unique
  name, so exactly one worker wins a race to reclaim (the loser's rename
  raises ``FileNotFoundError``);
* ``os.utime`` — a worker heartbeats by refreshing its lease's mtime; a
  lease whose mtime is older than ``lease_ttl`` is considered abandoned
  and its task is re-leased with an incremented attempt count.  After
  ``max_attempts`` claims a task is recorded as failed instead of being
  retried forever.

Completion is idempotent by construction: a worker appends the finished
record to the (sharded) result store *before* removing the lease and task
file, and every claim first consults the store — a task whose content hash
already has an ``ok`` record is garbage-collected, never re-run.  If a
reclaimed lease's original holder was merely slow rather than dead, both
workers complete the task; the store keeps one record per content hash and
the duplicates are bit-identical because task execution is deterministic.
"""

from __future__ import annotations

import json
import os
import secrets
import socket
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.runtime.atomics import atomic_write_json
from repro.runtime.checkpoint import (
    newest_checkpoint_round,
    task_checkpoint_dir,
)
from repro.runtime.faults import get_fault_plane
from repro.runtime.retry import DEFAULT_IO_RETRY, retry
from repro.runtime.store import ResultStore, merge_records, sanitize_writer_id
from repro.runtime.tasks import SweepSpec, Task, TaskRecord
from repro.telemetry.recorder import get_recorder

CLUSTER_DIRNAME = "cluster"
TASKS_DIRNAME = "tasks"
LEASES_DIRNAME = "leases"
WORKERS_DIRNAME = "workers"

#: Default lease time-to-live; a worker heartbeats at a quarter of this.
DEFAULT_LEASE_TTL = 60.0

#: Default bound on claims per task before it is recorded as failed.
DEFAULT_MAX_ATTEMPTS = 3


def default_worker_id() -> str:
    """A unique, filesystem-safe worker identity (host, pid, random tail)."""
    host = socket.gethostname().split(".", 1)[0] or "host"
    return sanitize_writer_id(f"{host}-{os.getpid()}-{secrets.token_hex(3)}")


@dataclass(frozen=True)
class Claim:
    """A successfully leased task.

    Holding a claim obliges the worker to either :meth:`WorkQueue.complete`
    it (after appending the record), :meth:`WorkQueue.release` it (give the
    task back), or keep heartbeating until one of the two — otherwise the
    lease expires and another worker re-runs the task.
    """

    task: Task
    key: str
    worker_id: str
    attempt: int
    lease_path: Path
    task_path: Path


@dataclass(frozen=True)
class WorkerStatus:
    """Liveness snapshot of one worker.

    A worker appears here as soon as it is *visible on disk* — through its
    registry file or through any lease it holds — not only after its first
    completed task lands in a result shard.  ``age_seconds`` is therefore
    the freshest evidence of life available: the smaller of the registry
    beacon age and the youngest held lease's heartbeat age.
    """

    worker_id: str
    age_seconds: float
    alive: bool
    completed: int
    active_claims: int = 0


@dataclass(frozen=True)
class LeaseStatus:
    """One currently held lease (a claimed, not-yet-completed task)."""

    key: str
    worker_id: str
    attempt: int
    age_seconds: float


@dataclass(frozen=True)
class ClusterStatus:
    """Aggregate queue + worker snapshot (what ``perigee-sim status`` prints)."""

    pending: int
    leased: int
    records_ok: int
    records_failed: int
    workers: list[WorkerStatus] = field(default_factory=list)
    leases: list[LeaseStatus] = field(default_factory=list)


class WorkQueue:
    """Store-backed distributed work queue.

    Parameters
    ----------
    store:
        Result store (or directory path) the queue lives in.  Completions
        are appended through this store, so pass a writer-bound view
        (:meth:`~repro.runtime.store.ResultStore.for_writer`) when several
        workers share the directory.
    lease_ttl:
        Seconds of heartbeat silence after which a lease is considered
        abandoned and may be reclaimed.  Must comfortably exceed the
        heartbeat interval (``lease_ttl / 4``) plus filesystem timestamp
        granularity; tune it well above network-filesystem attribute-cache
        lag when the store is shared across machines.
    max_attempts:
        Total claims a task may consume (first claim included) before the
        queue records it as failed and stops re-leasing it.
    """

    def __init__(
        self,
        store: ResultStore | str | os.PathLike,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if max_attempts < 1:
            raise ValueError("max_attempts must be positive")
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.lease_ttl = float(lease_ttl)
        self.max_attempts = int(max_attempts)
        root = self.store.directory / CLUSTER_DIRNAME
        self.tasks_dir = root / TASKS_DIRNAME
        self.leases_dir = root / LEASES_DIRNAME
        self.workers_dir = root / WORKERS_DIRNAME
        # Incremental completed-key scan state: byte offset consumed per
        # results shard, and every ok key seen so far.  Keys are only ever
        # added (an ok record is never superseded by a failure), so the
        # cache cannot go wrong — at worst a record appended by another
        # process after our last scan costs one idempotent re-execution.
        self._completed_keys: set[str] = set()
        self._shard_offsets: dict[Path, int] = {}

    # ------------------------------------------------------------------ #
    # Enqueue
    # ------------------------------------------------------------------ #
    def submit(self, spec: SweepSpec) -> int:
        """Persist the spec and enqueue its not-yet-completed tasks.

        Returns the number of tasks actually enqueued (tasks with an ``ok``
        record in the store, or already queued, are skipped).
        """
        self.store.save_spec(spec)
        existing = self.store.load()
        count = 0
        for task in spec.expand():
            record = existing.get(task.content_hash())
            if record is not None and record.ok:
                continue
            if self.enqueue(task):
                count += 1
        return count

    def enqueue(self, task: Task) -> bool:
        """Add one task to the queue; returns ``False`` if already queued.

        The task file is written via a unique temporary name and renamed
        into place, so concurrent enqueues of the same task converge on one
        identical file and readers never observe a partial write.
        """
        self.tasks_dir.mkdir(parents=True, exist_ok=True)
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        path = self._task_path(task.content_hash())
        if path.exists():
            return False
        atomic_write_json(
            path,
            task.to_dict(),
            fsync=False,
            fault_point="queue.task.write",
            retry_policy=DEFAULT_IO_RETRY,
        )
        return True

    # ------------------------------------------------------------------ #
    # Claim / heartbeat / complete
    # ------------------------------------------------------------------ #
    def claim(self, worker_id: str, keys: set[str] | None = None) -> Claim | None:
        """Lease the next claimable task, or ``None`` if nothing is claimable.

        ``None`` does not mean the queue is drained — every remaining task
        may simply be leased by other live workers; poll :meth:`drained`
        to distinguish.  Tasks already completed in the store (a worker
        died between appending its record and removing the queue entry)
        are garbage-collected here rather than re-run.

        ``keys`` restricts claiming to the given content hashes, so a
        sweep-scoped drainer (:class:`~repro.runtime.cluster.executor.ClusterExecutor`)
        never executes tasks another sweep queued in the same store.
        """
        completed: set[str] | None = None
        for task_path in sorted(self.tasks_dir.glob("*.json")):
            key = task_path.stem
            if keys is not None and key not in keys:
                continue
            if completed is None:
                completed = self._refresh_completed_keys()
            if key in completed:
                self._remove_entry(key, task_path)
                continue
            claim = self._try_claim(key, task_path, worker_id)
            if claim is not None:
                return claim
        return None

    def _refresh_completed_keys(self) -> set[str]:
        """Ok keys across all shards, parsing only lines appended since the
        last scan (a full ``store.load()`` per claim would re-parse every
        record on every poll — O(records^2) over a drain)."""
        for path in self.store.shard_paths():
            offset = self._shard_offsets.get(path, 0)
            try:
                if path.stat().st_size <= offset:
                    continue
                with path.open("rb") as handle:
                    handle.seek(offset)
                    chunk = handle.read()
            except OSError:
                continue
            # Only consume complete lines; a trailing partial line is a
            # write in progress and will be re-read next refresh.
            end = chunk.rfind(b"\n")
            if end < 0:
                continue
            self._shard_offsets[path] = offset + end + 1
            for line in chunk[:end].split(b"\n"):
                line = line.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue
                key = payload.get("key")
                if isinstance(key, str) and payload.get("status") == "ok":
                    self._completed_keys.add(key)
        return self._completed_keys

    def _try_claim(
        self, key: str, task_path: Path, worker_id: str
    ) -> Claim | None:
        lease_path = self._lease_path(key)

        def create_lease() -> int:
            # FileExistsError / FileNotFoundError are queue-protocol
            # signals and pass straight through retry(); only genuinely
            # transient OSErrors (EIO, injected faults) are absorbed.
            get_fault_plane().fire("queue.lease.create", path=lease_path)
            return os.open(lease_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)

        try:
            fd = retry(create_lease, DEFAULT_IO_RETRY, name="queue.lease.create")
        except FileExistsError:
            if not self._reclaim_stale_lease(key, task_path, lease_path):
                return None
            try:
                fd = retry(
                    create_lease, DEFAULT_IO_RETRY, name="queue.lease.create"
                )
            except FileExistsError:
                return None  # lost the re-lease race; move on
            except FileNotFoundError:
                return None
        except FileNotFoundError:
            return None  # leases dir vanished (store wiped under us)
        # The attempt number comes from the durable per-key reclaim counter,
        # not the lease we (or a racer) happened to tear down — so a task
        # that keeps killing its workers converges on max_attempts even when
        # a fresh claimer slips in between a reclaim and the re-lease.
        attempt = self._read_reclaims(key) + 1
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "key": key,
                        "worker": worker_id,
                        "attempt": attempt,
                        "claimed_at": time.time(),
                    },
                    handle,
                )
                handle.flush()
                os.fsync(handle.fileno())
        except OSError:
            lease_path.unlink(missing_ok=True)
            return None
        task = self._read_task(task_path)
        if task is None:
            # The task file disappeared (completed by the previous lease
            # holder an instant ago) or is unreadable; give the lease back.
            lease_path.unlink(missing_ok=True)
            return None
        get_recorder().incr("queue.claims")
        return Claim(
            task=task,
            key=key,
            worker_id=worker_id,
            attempt=attempt,
            lease_path=lease_path,
            task_path=task_path,
        )

    def _reclaim_stale_lease(
        self, key: str, task_path: Path, lease_path: Path
    ) -> bool:
        """Tear down an expired lease; True when the task may be re-leased.

        Returns ``False`` when the lease is still live, the reclaim race was
        lost, or the task just exhausted its attempts (in which case a
        failure record is appended and the task is dequeued).  The winner
        bumps the durable per-key reclaim counter *before* deleting the
        tombstone, so attempt accounting survives any interleaving of
        racing claimers.

        **Checkpoint forgiveness**: ``max_attempts`` exists to stop a task
        that keeps killing its workers from being retried forever.  A task
        that left a *newer checkpoint* than the last accounting saw is the
        opposite of that — it made durable forward progress and the next
        claim resumes from the snapshot rather than repeating work — so the
        reclaim records the new high-water round instead of burning an
        attempt.  A task that crashes without advancing its checkpoint
        (including checkpointing disabled entirely) consumes attempts
        exactly as before.
        """
        get_fault_plane().fire("queue.reclaim", path=lease_path)
        try:
            age = time.time() - lease_path.stat().st_mtime
        except FileNotFoundError:
            return False  # released/completed under us; caller retries fresh
        if age <= self.lease_ttl:
            return False
        # Exactly one reclaimer wins the rename; losers see FileNotFoundError.
        tombstone = lease_path.with_name(
            f".{lease_path.name}.reclaim-{secrets.token_hex(4)}"
        )
        try:
            os.rename(lease_path, tombstone)
        except FileNotFoundError:
            return False
        tombstone.unlink(missing_ok=True)
        get_recorder().incr("queue.reclaims")
        reclaims, seen_round = self._read_attempts(key)
        progress = newest_checkpoint_round(
            task_checkpoint_dir(self.store.directory, key)
        )
        if progress is not None and progress > seen_round:
            self._write_attempts(key, reclaims, progress)
            get_recorder().incr("queue.reclaims_forgiven")
            return True
        reclaims += 1
        self._write_attempts(key, reclaims, seen_round)
        if reclaims + 1 > self.max_attempts:  # next claim would exceed the cap
            self._record_exhausted(key, task_path, reclaims)
            return False
        return True

    def _read_reclaims(self, key: str) -> int:
        """How many times this task's lease expired without checkpointed progress."""
        return self._read_attempts(key)[0]

    def _read_attempts(self, key: str) -> tuple[int, int]:
        """Durable attempt accounting: ``(reclaims, checkpoint high-water round)``.

        The file holds JSON ``{"reclaims": n, "round": r}``; a plain integer
        (the pre-checkpoint format) is read as ``(n, -1)`` so mixed-version
        fleets sharing a store keep counting correctly.  *Any* byte-level
        corruption of the file degrades to the safe default — an attempt
        counter must never crash a claim.
        """
        path = self._attempts_path(key)

        def read() -> str:
            get_fault_plane().fire("queue.attempts.read", path=path)
            return path.read_text(encoding="utf-8")

        try:
            text = retry(read, DEFAULT_IO_RETRY, name="queue.attempts.read")
        except (OSError, UnicodeDecodeError):
            # UnicodeDecodeError: binary garbage where JSON should be —
            # the corruption-quarantine contract is "safe default, never
            # crash a worker".
            return 0, -1
        try:
            payload = json.loads(text)
        except ValueError:
            return 0, -1
        if isinstance(payload, int):
            return payload, -1
        if isinstance(payload, dict):
            try:
                return int(payload.get("reclaims", 0)), int(
                    payload.get("round", -1)
                )
            except (TypeError, ValueError):
                return 0, -1
        return 0, -1

    def _write_attempts(self, key: str, reclaims: int, seen_round: int) -> None:
        try:
            atomic_write_json(
                self._attempts_path(key),
                {"reclaims": reclaims, "round": seen_round},
                fsync=False,
                fault_point="queue.attempts.write",
                retry_policy=DEFAULT_IO_RETRY,
            )
        except OSError:
            # Best-effort after retries: losing one bump under-counts an
            # attempt, which only delays exhaustion — never corrupts it.
            pass

    def _record_exhausted(
        self, key: str, task_path: Path, reclaims: int
    ) -> None:
        task = self._read_task(task_path)
        if task is not None:
            self.store.append(
                TaskRecord(
                    key=key,
                    task=task,
                    status="failed",
                    error=(
                        f"cluster: lease expired {reclaims} time(s); "
                        f"gave up after max_attempts={self.max_attempts} "
                        "(workers keep crashing or stalling on this task)"
                    ),
                )
            )
        get_recorder().incr("queue.exhausted")
        self._remove_entry(key, task_path)

    def heartbeat(self, claim: Claim) -> None:
        """Refresh the lease mtime so other workers do not reclaim it.

        Transient failures are retried with backoff; a persistent failure
        propagates so the worker's heartbeat thread can mark itself dead
        (see :class:`~repro.runtime.cluster.worker.Worker`) instead of
        silently letting the lease age out under a running task.
        """

        def beat() -> None:
            # The fire is inside the retried closure: an injected delay
            # stalls this beat (forcing lease expiry under a live worker),
            # an injected EIO is absorbed by the retry budget.
            get_fault_plane().fire("queue.heartbeat", path=claim.lease_path)
            os.utime(claim.lease_path)

        try:
            retry(beat, DEFAULT_IO_RETRY, name="queue.heartbeat")
        except FileNotFoundError:
            # Reclaimed from under us (we were presumed dead).  Finish the
            # task anyway — duplicate completion is idempotent by key.
            pass

    def complete(self, claim: Claim, record: TaskRecord) -> None:
        """Persist the record, then retire the queue entry.

        Append-then-unlink ordering makes completion crash-safe: a worker
        dying in between leaves a record plus a queue entry, and the next
        :meth:`claim` garbage-collects the entry instead of re-running.
        """
        self.store.append(record)
        get_fault_plane().fire("queue.retire", path=claim.task_path)
        self._remove_entry(claim.key, claim.task_path)

    def release(self, claim: Claim) -> None:
        """Give a claimed task back (e.g. on worker shutdown mid-task)."""
        get_recorder().incr("queue.released")
        claim.lease_path.unlink(missing_ok=True)

    def _remove_entry(self, key: str, task_path: Path) -> None:
        self._lease_path(key).unlink(missing_ok=True)
        self._attempts_path(key).unlink(missing_ok=True)
        task_path.unlink(missing_ok=True)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def pending_keys(self) -> list[str]:
        """Content hashes of tasks still queued (leased or not)."""
        return sorted(path.stem for path in self.tasks_dir.glob("*.json"))

    def drained(self, keys: set[str] | None = None) -> bool:
        """True when no queued tasks remain (all completed or failed).

        With ``keys``, only those content hashes are considered — the
        sweep-scoped counterpart of ``claim(..., keys=...)``.
        """
        if keys is not None:
            return not any(self._task_path(key).exists() for key in keys)
        return next(self.tasks_dir.glob("*.json"), None) is None

    # ------------------------------------------------------------------ #
    # Worker registry
    # ------------------------------------------------------------------ #
    def register_worker(self, worker_id: str) -> None:
        """Register (or re-register) a worker identity.

        Two *live* workers must never share an id — they would append to
        the same result shard and interleave partial lines, which is the
        exact corruption per-worker shards exist to prevent.  Registration
        therefore claims the registry file with ``O_CREAT|O_EXCL`` (one
        winner per race) and breaks stale entries via rename, the same
        primitives leases use; a fresh entry owned by a different host/pid
        raises.
        """
        self.workers_dir.mkdir(parents=True, exist_ok=True)
        path = self._worker_path(worker_id)
        identity = (socket.gethostname(), os.getpid())
        payload = json.dumps(
            {
                "worker": worker_id,
                "host": identity[0],
                "pid": identity[1],
                "started_at": time.time(),
            },
            sort_keys=True,
        )
        while True:
            try:
                fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                try:
                    age = time.time() - path.stat().st_mtime
                except FileNotFoundError:
                    continue  # just released/broken; retry the claim
                try:
                    existing = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, ValueError):
                    # Unreadable: either another registrant between O_EXCL
                    # and write (fresh -> conflict) or a long-dead partial
                    # write (stale -> break below).
                    existing = None
                if existing is not None and (
                    existing.get("host"),
                    existing.get("pid"),
                ) == identity:
                    # Our own entry (same process re-registering): rewrite.
                    path.write_text(payload, encoding="utf-8")
                    return
                if age <= self.lease_ttl:
                    owner = existing or {}
                    raise RuntimeError(
                        f"worker id {worker_id!r} is already registered by a "
                        f"live worker (host={owner.get('host')}, "
                        f"pid={owner.get('pid')}, last seen {age:.1f}s ago); "
                        "concurrent workers sharing an id would corrupt "
                        "their shared result shard — pick a unique "
                        "--worker-id or omit it for an auto-generated one"
                    )
                # Stale entry: exactly one breaker wins the rename, then
                # everyone re-races the O_CREAT|O_EXCL claim.
                tombstone = path.with_name(
                    f".{path.name}.stale-{secrets.token_hex(4)}"
                )
                try:
                    os.rename(path, tombstone)
                except FileNotFoundError:
                    continue
                tombstone.unlink(missing_ok=True)
                continue
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload)
            return

    def beat_worker(self, worker_id: str) -> None:
        """Refresh the worker's liveness beacon (its registry file mtime)."""
        try:
            os.utime(self._worker_path(worker_id))
        except FileNotFoundError:
            self.register_worker(worker_id)

    def active_leases(self) -> list[LeaseStatus]:
        """Every currently held lease, sorted by task key.

        The lease file's mtime is its heartbeat, so ``age_seconds`` is the
        time since the holder last proved it was alive on that task.
        """
        leases = []
        now = time.time()
        if not self.leases_dir.is_dir():
            return leases
        for path in sorted(self.leases_dir.glob("*.lease")):
            try:
                age = now - path.stat().st_mtime
                payload = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError):
                continue  # reclaimed/completed under us, or mid-write
            worker = payload.get("worker")
            leases.append(
                LeaseStatus(
                    key=path.stem,
                    worker_id=worker if isinstance(worker, str) else "unknown",
                    attempt=int(payload.get("attempt", 1)),
                    age_seconds=age,
                )
            )
        return leases

    def status(self, records: Sequence[TaskRecord] | None = None) -> ClusterStatus:
        """Snapshot of queue depth, store counts, and worker liveness.

        Workers are discovered through their registry files *and* through
        the leases they hold, so a worker that has claimed its first task
        but not yet completed one still shows up — with its lease heartbeat
        age — instead of only surfacing after its first result shard record.
        ``records`` is one :meth:`ResultStore.iter_records` scan when the
        caller has just made it (``fleet_status`` does); by default the scan
        is made here.  A worker's ``completed`` count is the distinct ``ok``
        keys the scan read from its result shard.
        """
        pending = 0
        leased = 0
        for task_path in self.tasks_dir.glob("*.json"):
            if self._lease_path(task_path.stem).exists():
                leased += 1
            else:
                pending += 1
        if records is None:
            records = list(self.store.iter_records())
        merged = merge_records(records)
        records_ok = sum(1 for record in merged.values() if record.ok)
        ok_keys: dict[Path, set[str]] = {}
        for record in records:
            if record.ok and record.shard is not None:
                ok_keys.setdefault(record.shard, set()).add(record.key)
        leases = self.active_leases()
        claims: dict[str, list[LeaseStatus]] = {}
        for lease in leases:
            claims.setdefault(lease.worker_id, []).append(lease)
        ages: dict[str, float] = {}
        now = time.time()
        if self.workers_dir.is_dir():
            for path in sorted(self.workers_dir.glob("*.json")):
                try:
                    ages[path.stem] = now - path.stat().st_mtime
                except FileNotFoundError:
                    continue
        for worker_id, held in claims.items():
            # A lease heartbeat is as good a liveness proof as the registry
            # beacon; keep whichever is fresher (and admit lease-only
            # workers that never managed to register).
            lease_age = min(lease.age_seconds for lease in held)
            ages[worker_id] = min(ages.get(worker_id, lease_age), lease_age)
        workers = [
            WorkerStatus(
                worker_id=worker_id,
                age_seconds=age,
                alive=age <= self.lease_ttl,
                completed=len(
                    ok_keys.get(self.store.for_writer(worker_id).results_path, ())
                ),
                active_claims=len(claims.get(worker_id, ())),
            )
            for worker_id, age in sorted(ages.items())
        ]
        return ClusterStatus(
            pending=pending,
            leased=leased,
            records_ok=records_ok,
            records_failed=len(merged) - records_ok,
            workers=workers,
            leases=leases,
        )

    # ------------------------------------------------------------------ #
    # Paths
    # ------------------------------------------------------------------ #
    def _task_path(self, key: str) -> Path:
        return self.tasks_dir / f"{key}.json"

    def _lease_path(self, key: str) -> Path:
        return self.leases_dir / f"{key}.lease"

    def _attempts_path(self, key: str) -> Path:
        return self.leases_dir / f"{key}.attempts"

    def _worker_path(self, worker_id: str) -> Path:
        return self.workers_dir / f"{worker_id}.json"

    @staticmethod
    def _read_task(task_path: Path) -> Task | None:
        try:
            return Task.from_dict(json.loads(task_path.read_text(encoding="utf-8")))
        except (OSError, ValueError, KeyError):
            return None
