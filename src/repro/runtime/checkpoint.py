"""On-disk simulator checkpoints for resumable long-horizon tasks.

Layout inside a result-store directory::

    <store>/checkpoints/<task-hash>/round-<k>.json

Each file is a complete :meth:`repro.core.simulator.Simulator.state_dict`
snapshot taken after round ``k`` (1-based count of completed rounds), written
via temp-file + atomic rename so a reader — or a worker resuming a reclaimed
lease — never observes a partial snapshot.  Retention is bounded: only the
newest :data:`DEFAULT_RETENTION` snapshots per task are kept, so a
multi-thousand-round run costs a constant amount of disk.

The round number is encoded in the filename (zero-padded so lexicographic
order equals numeric order), which lets the cluster queue answer "has this
task made forward progress since the last reclaim?" from a directory listing
alone, without parsing snapshot JSON.

Every list whose elements are all ``float`` (Perigee-UCB's per-neighbor
histories, which dominate a snapshot) is stored inside the JSON as one
``{"__f64__": "<base64>"}`` object holding its little-endian float64 bytes,
and :func:`latest_checkpoint` turns it back into the same list.  The bytes
carry every float exactly (``-0.0``, ``nan`` and ``inf`` included) and skip
the decimal text round trip, which is most of a UCB snapshot's write and
read time.  Other lists — ints, mixed int/float, empty ones — stay plain
JSON, and so do snapshots written before the packing, which load unchanged.
"""

from __future__ import annotations

import base64
import json
import os
import re
import shutil
import struct
import time
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

from repro.runtime.atomics import atomic_write_json
from repro.runtime.faults import get_fault_plane
from repro.runtime.retry import DEFAULT_IO_RETRY

CHECKPOINTS_DIRNAME = "checkpoints"

#: Snapshots kept per task; the newest is what resume uses, the one before it
#: survives as insurance against a crash mid-rename on filesystems without
#: atomic replace semantics.
DEFAULT_RETENTION = 2

_ROUND_FILE = re.compile(r"^round-(\d{8})\.json$")

#: Sole key of the object that stands for a packed list of floats; reserved,
#: so a snapshot may not use it as a key of its own.
PACKED_FLOATS_KEY = "__f64__"


def _pack_floats(value: Any) -> Any:
    """Copy of ``value`` with every all-float list packed as float64 bytes.

    The check is exact: ``[1.5, 2]`` keeps its int and stays a list.
    """
    if isinstance(value, dict):
        if PACKED_FLOATS_KEY in value:
            raise ValueError(
                f"snapshot key {PACKED_FLOATS_KEY!r} is reserved for packed floats"
            )
        return {key: _pack_floats(item) for key, item in value.items()}
    if isinstance(value, list):
        if value and set(map(type, value)) == {float}:
            raw = struct.pack(f"<{len(value)}d", *value)
            return {PACKED_FLOATS_KEY: base64.b64encode(raw).decode("ascii")}
        return [_pack_floats(item) for item in value]
    return value


def _unpack_floats(obj: dict) -> Any:
    """``json.loads`` object hook undoing :func:`_pack_floats`.

    A corrupt packed value raises ``ValueError``, which
    :func:`latest_checkpoint` treats like any other corrupt snapshot.
    """
    if len(obj) != 1 or PACKED_FLOATS_KEY not in obj:
        return obj
    encoded = obj[PACKED_FLOATS_KEY]
    if not isinstance(encoded, str):
        raise ValueError("packed floats must be a base64 string")
    # Bad base64 raises binascii.Error, a ValueError, and so does
    # frombuffer on a byte count that is not a multiple of 8.
    raw = base64.b64decode(encoded, validate=True)
    return np.frombuffer(raw, dtype="<f8").tolist()


def checkpoints_dir(store_dir: str | os.PathLike) -> Path:
    """Root checkpoint directory of a result store."""
    return Path(store_dir) / CHECKPOINTS_DIRNAME


def task_checkpoint_dir(store_dir: str | os.PathLike, key: str) -> Path:
    """Checkpoint directory of one task, keyed by content hash."""
    return checkpoints_dir(store_dir) / key


def checkpoint_path(directory: Path, rounds_completed: int) -> Path:
    """Snapshot filename for a given number of completed rounds."""
    return directory / f"round-{rounds_completed:08d}.json"


def write_checkpoint(
    directory: Path,
    state: dict,
    retention: int = DEFAULT_RETENTION,
) -> Path:
    """Atomically persist one snapshot and prune beyond ``retention``.

    ``state`` must carry ``rounds_completed`` (a
    :meth:`Simulator.state_dict` snapshot always does); it names the file.
    Its all-float lists are written packed (see the module docstring).
    """
    rounds_completed = int(state["rounds_completed"])
    directory.mkdir(parents=True, exist_ok=True)
    target = checkpoint_path(directory, rounds_completed)
    atomic_write_json(
        target,
        _pack_floats(state),
        fault_point="checkpoint.write",
        retry_policy=DEFAULT_IO_RETRY,
    )
    if retention > 0:
        rounds = sorted(_iter_round_files(directory))
        for _, stale in rounds[:-retention]:
            try:
                stale.unlink()
            except FileNotFoundError:  # pragma: no cover - concurrent prune
                pass
    return target


def _iter_round_files(directory: Path) -> Iterator[tuple[int, Path]]:
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return
    for name in names:
        match = _ROUND_FILE.match(name)
        if match:
            yield int(match.group(1)), directory / name


def newest_checkpoint_round(directory: Path) -> int | None:
    """Highest completed-round number on disk, from filenames alone."""
    rounds = [round_number for round_number, _ in _iter_round_files(directory)]
    return max(rounds) if rounds else None


def latest_checkpoint(
    directory: Path, load: Callable[[dict], None] | None = None
) -> dict | None:
    """Load the newest usable snapshot, or ``None`` when there is none.

    Packed float lists come back as plain lists of floats.  Corrupt files
    (e.g. a snapshot written by a kernel that lied about fsync) are
    skipped — truncated JSON, invalid bytes, corrupt packed floats, and
    wrong-shape payloads alike — falling back to the next-newest snapshot,
    which is why retention keeps more than one.  When ``load`` is given, a
    snapshot counts as usable only once ``load(snapshot)`` returns: one it
    rejects with ``ValueError`` (it parses but does not restore) is skipped
    the same way.
    """
    for _, path in sorted(_iter_round_files(directory), reverse=True):
        get_fault_plane().fire("checkpoint.read", path=path)
        try:
            payload = json.loads(
                path.read_text(encoding="utf-8"), object_hook=_unpack_floats
            )
        except (OSError, ValueError):
            # ValueError covers JSONDecodeError, the UnicodeDecodeError a
            # binary-garbage snapshot raises, and corrupt packed floats.
            continue
        if not isinstance(payload, dict):
            continue
        if load is not None:
            try:
                load(payload)
            except ValueError:
                continue
        return payload
    return None


def clear_task_checkpoints(store_dir: str | os.PathLike, key: str) -> bool:
    """Remove a completed task's checkpoint directory; True if one existed."""
    directory = task_checkpoint_dir(store_dir, key)
    if not directory.is_dir():
        return False
    shutil.rmtree(directory, ignore_errors=True)
    return True


def list_checkpoints(store_dir: str | os.PathLike) -> list[dict]:
    """Inventory of checkpoint artifacts, one entry per task key.

    Each entry carries the task key, newest completed round, snapshot count,
    total size in bytes, and the age (seconds since the newest snapshot was
    written).  Sorted newest-first so active tasks lead the listing.
    """
    root = checkpoints_dir(store_dir)
    if not root.is_dir():
        return []
    now = time.time()
    entries: list[dict] = []
    for task_dir in sorted(root.iterdir()):
        if not task_dir.is_dir():
            continue
        rounds = sorted(_iter_round_files(task_dir))
        if not rounds:
            continue
        size = 0
        newest_mtime = 0.0
        for _, path in rounds:
            try:
                stat = path.stat()
            except FileNotFoundError:  # pragma: no cover - concurrent prune
                continue
            size += stat.st_size
            newest_mtime = max(newest_mtime, stat.st_mtime)
        entries.append(
            {
                "key": task_dir.name,
                "round": rounds[-1][0],
                "snapshots": len(rounds),
                "bytes": size,
                "age_s": max(0.0, now - newest_mtime),
            }
        )
    entries.sort(key=lambda entry: entry["age_s"])
    return entries


def prune_checkpoints(
    store_dir: str | os.PathLike, keys: set[str] | None = None
) -> int:
    """Remove checkpoint directories; all of them when ``keys`` is ``None``.

    Returns the number of task directories removed.  Used by
    ``ResultStore.compact()`` (completed tasks only) and the
    ``perigee-sim checkpoints --prune`` command.
    """
    root = checkpoints_dir(store_dir)
    if not root.is_dir():
        return 0
    removed = 0
    for task_dir in sorted(root.iterdir()):
        if not task_dir.is_dir():
            continue
        if keys is not None and task_dir.name not in keys:
            continue
        shutil.rmtree(task_dir, ignore_errors=True)
        removed += 1
    try:
        root.rmdir()  # tidy up when everything is gone; fails harmlessly
    except OSError:
        pass
    return removed
