"""On-disk, append-only JSONL result store keyed by task content hash.

Layout of a store directory::

    <store>/
        results.jsonl           # single-writer records, append-only
        results-<writer>.jsonl  # per-writer shard files (cluster workers)
        sweeps/<name>.json      # one SweepSpec per file (atomic writes)
        sweeps.json             # legacy spec index (read-only compatibility)
        quarantine/             # corrupt record lines (this module)
        checkpoints/<hash>/     # simulator snapshots (repro.runtime.checkpoint)
        telemetry/              # worker metric shards (repro.telemetry.shards)
        runs/<hash>/            # flight recordings (repro.telemetry.flight)
        cluster/                # work queue (repro.runtime.cluster.queue)

Each subdirectory's name is defined once, in the module named beside it.

Design notes
------------
* **Append-only JSONL** makes interrupted writes cheap to tolerate: a
  truncated trailing line (e.g. the process was killed mid-write) is
  skipped on load, and everything before it remains valid.
* **Per-writer shards** make the store safe for many concurrent writers:
  a store bound to a writer id (:meth:`ResultStore.for_writer`) appends to
  its own ``results-<writer>.jsonl``, so two workers never interleave
  partial lines in one file.  Reads always merge ``results.jsonl`` plus
  every shard, keeping the original single-file format readable.
* **Content-hash keys** give free caching: re-running any sweep against the
  same store skips every task whose full description (config, protocol,
  repeat, rounds, scenario, parameters) is unchanged.  Merging prefers
  ``ok`` records over failed ones (so a retried task's success supersedes
  its earlier failure no matter which shard holds which), and otherwise the
  last record per key wins.  Duplicate completions of the same task —
  possible when a cluster lease is reclaimed from a worker that was slow
  rather than dead — are harmless because task execution is deterministic:
  every record for a key carries identical results.
* **Exact floats**: ``json`` serialises floats via ``repr``, the shortest
  round-trip representation, so delay values survive a store round-trip
  bit-for-bit and resumed sweeps aggregate to byte-identical curves.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.runtime.atomics import atomic_write_bytes, atomic_write_json
from repro.runtime.checkpoint import prune_checkpoints
from repro.runtime.faults import get_fault_plane
from repro.runtime.retry import DEFAULT_IO_RETRY, retry
from repro.runtime.tasks import SweepSpec, TaskRecord
from repro.telemetry.recorder import get_recorder

RESULTS_FILENAME = "results.jsonl"
SWEEPS_FILENAME = "sweeps.json"
SPECS_DIRNAME = "sweeps"
QUARANTINE_DIRNAME = "quarantine"

#: Characters allowed in a writer id (it becomes part of a filename).
_WRITER_SAFE = re.compile(r"[^A-Za-z0-9_.-]+")

#: ``on_corrupt(line_number, raw_line, trailing)`` — notified for every
#: unparseable JSONL line; ``trailing`` marks the file's final line (the
#: benign torn-append case) as opposed to mid-file corruption.
CorruptLineCallback = Callable[[int, str, bool], None]


def merge_records(records: Iterable[TaskRecord]) -> dict[str, TaskRecord]:
    """Records keyed by content hash under the store's merge rules.

    An ``ok`` record is never displaced by a failed one for the same key
    (shard merge order must not resurrect failures); among records of equal
    success the last one read wins.
    """
    merged: dict[str, TaskRecord] = {}
    for record in records:
        current = merged.get(record.key)
        if current is not None and current.ok and not record.ok:
            continue
        merged[record.key] = record
    return merged


def sanitize_writer_id(writer: str) -> str:
    """Make a writer id filesystem-safe (used in shard filenames)."""
    cleaned = _WRITER_SAFE.sub("-", writer).strip("-.")
    if not cleaned:
        raise ValueError(f"writer id {writer!r} has no filesystem-safe characters")
    return cleaned


def iter_jsonl_payloads(
    path: Path, on_corrupt: CorruptLineCallback | None = None
) -> Iterator[dict]:
    """Yield the parseable JSON objects of one JSONL file.

    The single source of truth for append-only-file tolerance: blank lines
    are skipped and so is a truncated trailing line (a write interrupted by
    a crash), everything before it remaining valid.  Invalid bytes decode
    via replacement characters (and then fail JSON parsing) instead of
    aborting the read mid-file.  ``on_corrupt`` observes every skipped
    line — the last line of the file is flagged ``trailing=True`` so
    callers can distinguish an expected torn append from real mid-file
    corruption worth quarantining.
    """
    with path.open("r", encoding="utf-8", errors="replace") as handle:
        lines = handle.read().split("\n")
    # A file ending in a newline splits into a final empty string; drop it
    # so "last line" means the last line that holds bytes.
    if lines and not lines[-1]:
        lines.pop()
    last = len(lines) - 1
    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        payload = None
        try:
            payload = json.loads(stripped)
        except json.JSONDecodeError:
            pass
        if isinstance(payload, dict):
            yield payload
            continue
        if on_corrupt is not None:
            on_corrupt(index + 1, line, index == last)


@dataclass(frozen=True)
class CompactionResult:
    """Outcome of :meth:`ResultStore.compact`.

    Attributes
    ----------
    records:
        Distinct task records written to the merged ``results.jsonl``.
    shards_removed:
        Per-worker shard files deleted after the merge.
    lines_before:
        Record lines read across all files before compaction (duplicates
        from reclaimed leases and superseded failures included).
    checkpoints_removed:
        Checkpoint directories of successfully completed tasks deleted by
        the compaction (a leftover snapshot of a finished task is pure dead
        weight — resume would be ignored because the record is served from
        the store).
    """

    records: int
    shards_removed: int
    lines_before: int
    checkpoints_removed: int = 0


class ResultStore:
    """Persistent record store bound to one directory.

    The directory is created lazily on first write, so read-only operations
    (e.g. a ``resume`` lookup against a mistyped path) leave no trace.

    Parameters
    ----------
    directory:
        The store directory.
    writer:
        Optional writer id.  When set, :meth:`append` targets the private
        shard ``results-<writer>.jsonl`` instead of the shared
        ``results.jsonl``, which makes concurrent appends from many
        processes (or machines sharing the directory) safe.  Reads are
        unaffected: every store view merges all shards.
    """

    def __init__(self, directory: str | os.PathLike, writer: str | None = None) -> None:
        self._directory = Path(directory)
        self._writer = None if writer is None else sanitize_writer_id(writer)

    def for_writer(self, writer: str) -> "ResultStore":
        """A view of the same directory whose appends go to a private shard."""
        return ResultStore(self._directory, writer=writer)

    @property
    def directory(self) -> Path:
        return self._directory

    @property
    def writer(self) -> str | None:
        return self._writer

    @property
    def results_path(self) -> Path:
        """The file :meth:`append` writes to (shard when writer-bound)."""
        if self._writer is not None:
            return self._directory / f"results-{self._writer}.jsonl"
        return self._directory / RESULTS_FILENAME

    @property
    def sweeps_path(self) -> Path:
        """Legacy single-file spec index (still read, no longer written)."""
        return self._directory / SWEEPS_FILENAME

    @property
    def specs_dir(self) -> Path:
        """Directory of per-sweep spec files (one atomic write per sweep)."""
        return self._directory / SPECS_DIRNAME

    @property
    def quarantine_dir(self) -> Path:
        """Directory of quarantined corrupt record lines.

        A mid-file line that fails JSON parsing — or parses but cannot be
        decoded into a :class:`TaskRecord` — is copied here (one sidecar
        file per source shard, ``<source>.corrupt``) instead of silently
        discarded or allowed to raise away the whole shard.  Torn *trailing*
        lines (a crash mid-append) are the expected fault class and are
        only counted, not quarantined.
        """
        return self._directory / QUARANTINE_DIRNAME

    def shard_paths(self) -> list[Path]:
        """Every results file readers merge: shared file first, then shards."""
        paths = []
        shared = self._directory / RESULTS_FILENAME
        if shared.exists():
            paths.append(shared)
        paths.extend(sorted(self._directory.glob("results-*.jsonl")))
        return paths

    # ------------------------------------------------------------------ #
    # Task records
    # ------------------------------------------------------------------ #
    def append(self, record: TaskRecord) -> None:
        """Append one record; flushed so a crash loses at most one line.

        Transient ``OSError``\\ s (EIO, ENOSPC clearing up, injected faults)
        are retried with deterministic backoff; partial bytes from a failed
        attempt are truncated away first so a retry can never interleave
        with its own debris.  Retries that land a duplicate line are
        harmless — records merge by content hash.
        """
        line = (json.dumps(record.to_dict(), sort_keys=True) + "\n").encode(
            "utf-8"
        )
        self._directory.mkdir(parents=True, exist_ok=True)
        path = self.results_path

        def write() -> None:
            get_fault_plane().fire("store.append", path=path, data=line)
            with path.open("ab") as handle:
                offset = handle.tell()
                try:
                    handle.write(line)
                    handle.flush()
                    os.fsync(handle.fileno())
                except OSError:
                    try:
                        handle.truncate(offset)
                    except OSError:  # pragma: no cover - rollback best-effort
                        pass
                    raise

        retry(write, DEFAULT_IO_RETRY, name="store.append")

    def _quarantine_line(self, source: Path, line_no: int, raw: str) -> None:
        """Copy one corrupt record line into the quarantine sidecar.

        Best-effort by design: quarantine is forensic output and must never
        turn a tolerated corruption back into a crash.
        """
        get_recorder().incr("store.quarantined")
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            sidecar = self.quarantine_dir / f"{source.name}.corrupt"
            with sidecar.open("a", encoding="utf-8") as handle:
                handle.write(
                    json.dumps(
                        {"source": source.name, "line": line_no, "raw": raw},
                        sort_keys=True,
                    )
                    + "\n"
                )
        except OSError:  # pragma: no cover - quarantine is best-effort
            pass

    def quarantined_lines(self) -> int:
        """Total corrupt record lines quarantined so far (all sidecars)."""
        directory = self.quarantine_dir
        if not directory.is_dir():
            return 0
        total = 0
        for sidecar in sorted(directory.glob("*.corrupt")):
            try:
                with sidecar.open("r", encoding="utf-8") as handle:
                    total += sum(1 for line in handle if line.strip())
            except OSError:  # pragma: no cover - racing cleanup
                continue
        return total

    def iter_records(self) -> Iterator[TaskRecord]:
        """Yield all parseable records, shared file first, then shards.

        Each record's ``shard`` is the file it was read from, so one scan
        also tells which worker's shard holds which completion.

        A corrupt line never discards the rest of its shard: a torn
        *trailing* line (crash mid-append) is counted
        (``store.torn_lines``) and skipped; mid-file corruption — including
        well-formed JSON that does not decode into a :class:`TaskRecord` —
        is quarantined (``store.quarantined``) and skipped.
        """
        recorder = get_recorder()
        for path in self.shard_paths():
            get_fault_plane().fire("store.load", path=path)

            def on_corrupt(
                line_no: int, raw: str, trailing: bool, _path: Path = path
            ) -> None:
                if trailing:
                    recorder.incr("store.torn_lines")
                else:
                    self._quarantine_line(_path, line_no, raw)

            for payload in iter_jsonl_payloads(path, on_corrupt=on_corrupt):
                try:
                    record = TaskRecord.from_dict(payload)
                except (KeyError, TypeError, ValueError):
                    self._quarantine_line(
                        path, 0, json.dumps(payload, sort_keys=True)
                    )
                    continue
                record.shard = path
                yield record

    def load(self) -> dict[str, TaskRecord]:
        """All records keyed by content hash, merged across shards by
        :func:`merge_records`."""
        return merge_records(self.iter_records())

    def compact(self) -> CompactionResult:
        """Merge every ``results-<worker>.jsonl`` shard into ``results.jsonl``.

        A cluster sweep leaves one shard per worker; once the sweep is done
        those shards are pure read-amplification (every load re-merges all of
        them) and duplicate records from reclaimed leases accumulate.
        Compaction applies the usual merge rules (ok beats failed, last
        record per key wins), rewrites ``results.jsonl`` atomically via a
        temp file + rename, and then removes the shard files — so a reader
        racing the compaction sees either the old file set or the new one,
        never a partial state.

        Must only run after the sweep has drained (no live workers are
        appending to their shards); the ``perigee-sim compact`` command is
        the intended entry point.  Writer-bound views cannot compact.
        """
        if self._writer is not None:
            raise RuntimeError(
                "compact() must run on the coordinator store, not a "
                "writer-bound shard view"
            )
        shard_files = [
            path
            for path in self.shard_paths()
            if path.name != RESULTS_FILENAME
        ]
        records = list(self.iter_records())
        lines_before = len(records)
        merged = merge_records(records)
        target = self._directory / RESULTS_FILENAME
        if merged:
            self._directory.mkdir(parents=True, exist_ok=True)
            payload = "".join(
                json.dumps(record.to_dict(), sort_keys=True) + "\n"
                for record in merged.values()
            ).encode("utf-8")
            atomic_write_bytes(
                target,
                payload,
                fault_point="store.compact",
                retry_policy=DEFAULT_IO_RETRY,
            )
        for path in shard_files:
            try:
                path.unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent cleanup
                pass
        # Checkpoints of completed tasks are unreachable (resume consults
        # the store first), so compaction sweeps them with the shards.
        completed_keys = {
            key for key, record in merged.items() if record.ok
        }
        checkpoints_removed = (
            prune_checkpoints(self._directory, keys=completed_keys)
            if completed_keys
            else 0
        )
        return CompactionResult(
            records=len(merged),
            shards_removed=len(shard_files),
            lines_before=lines_before,
            checkpoints_removed=checkpoints_removed,
        )

    def __contains__(self, key: str) -> bool:
        """Membership test; re-reads the files — use :meth:`load` for bulk checks."""
        return key in self.load()

    def __len__(self) -> int:
        """Number of distinct task keys; re-reads the files on every call."""
        return len(self.load())

    # ------------------------------------------------------------------ #
    # Sweep specs (what `perigee-sim resume` rebuilds tasks from)
    # ------------------------------------------------------------------ #
    def save_spec(self, spec: SweepSpec) -> None:
        """Persist (or update) a sweep spec under its name.

        Each spec lives in its own file under ``sweeps/``, written via
        temp-file + atomic rename, so any number of concurrent savers (two
        ``submit`` processes, a ``--cluster`` coordinator racing a submit)
        never lose each other's sweeps — there is no shared index to
        read-modify-write.  The legacy single-file ``sweeps.json`` format
        remains readable.
        """
        self.specs_dir.mkdir(parents=True, exist_ok=True)
        path = self.specs_dir / f"{sanitize_writer_id(spec.name)}.json"
        atomic_write_json(
            path,
            spec.to_dict(),
            indent=2,
            fsync=False,
            fault_point="store.spec.write",
            retry_policy=DEFAULT_IO_RETRY,
        )

    def _load_spec_dicts(self) -> dict[str, dict]:
        specs: dict[str, dict] = {}
        if self.sweeps_path.exists():  # legacy single-file index
            try:
                payload = json.loads(self.sweeps_path.read_text(encoding="utf-8"))
            except json.JSONDecodeError:
                payload = None
            if isinstance(payload, dict):
                specs.update(
                    (name, data)
                    for name, data in payload.items()
                    if isinstance(data, dict)
                )
        if self.specs_dir.is_dir():
            for path in sorted(self.specs_dir.glob("*.json")):
                try:
                    payload = json.loads(path.read_text(encoding="utf-8"))
                except (OSError, json.JSONDecodeError):
                    continue
                if isinstance(payload, dict) and "name" in payload:
                    specs[payload["name"]] = payload
        return specs

    def load_specs(self) -> dict[str, SweepSpec]:
        """All persisted sweep specs keyed by name."""
        return {
            name: SweepSpec.from_dict(data)
            for name, data in self._load_spec_dicts().items()
        }
