"""Process-wide, deterministically seeded fault-injection plane.

The runtime's headline guarantee — bit-identical results no matter how
workers crash, resume, or race — is only as strong as the fault classes it
is exercised against.  This module makes faults a first-class, *seeded*
input to the runtime, the same discipline :mod:`repro.runtime.tasks` applies
to randomness: every durable-IO seam (store append/load/compact, queue
lease/heartbeat/reclaim/attempts, worker claim/execute, checkpoint
write/read, telemetry shard flush) calls :func:`get_fault_plane`'s
``fire(point, ...)`` hook, and an installed :class:`FaultPlane` decides —
from a :class:`FaultPlan` schedule that is a pure function of its seed —
whether that particular hit dies, lies, or stalls.

Fault actions
-------------
``crash``
    ``os._exit(code)`` at the injection point: the hard-kill the cluster
    queue's lease reclamation exists for.
``torn``
    Write a *truncated prefix* of the payload to the target file, then
    ``os._exit`` — a crash mid-append (or a filesystem that lied about
    ``fsync``), producing exactly the partial trailing line readers must
    tolerate.
``raise``
    Raise ``OSError`` with a configurable errno (``EIO``/``ENOSPC``/...):
    the transient-IO class :func:`repro.runtime.retry.retry` absorbs.
``delay``
    ``time.sleep`` at the point — aimed at ``queue.heartbeat`` to force
    lease expiry under a still-running worker.
``skew``
    Shift the target file's mtime backwards, modelling NFS attribute-cache
    lag and cross-machine clock skew against the mtime-heartbeat protocol.

Two planes exist, mirroring ``NullRecorder``/``MetricsRecorder``:

* :class:`NullFaultPlane` — the **default**.  ``fire()`` is a no-op, so
  clean runs stay bit-identical and the per-seam cost is one method call.
* :class:`FaultPlane` — counts hits per point (thread-safe) and executes
  the plan's matching rules.  Every fired fault increments a
  ``fault.fired`` telemetry counter tagged with point and action.

Worker subprocesses inherit the plan through the ``PERIGEE_FAULT_PLAN``
environment variable (inline JSON or a path to a JSON file), which
:func:`install_fault_plane_from_env` reads at CLI startup — this is how
``perigee-sim chaos`` arms an entire fleet from one seed.
"""

from __future__ import annotations

import errno as errno_module
import json
import os
import random
import sys
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.instruments import InstrumentSlot
from repro.telemetry.recorder import get_recorder

#: Environment variable carrying a serialised plan (JSON text or a path).
FAULT_PLAN_ENV = "PERIGEE_FAULT_PLAN"

#: Exit code used by ``crash``/``torn`` faults, distinguishable from real
#: worker failures in chaos-harness logs.
FAULT_EXIT_CODE = 86

#: Actions a rule may name.
ACTIONS = ("crash", "torn", "raise", "delay", "skew")

#: Points the randomized plan generator draws from by default.  Every name
#: is a seam that exists in the runtime today; adding a seam means adding
#: its name here so seeded chaos schedules start covering it.
DEFAULT_POINTS = (
    "store.append",
    "store.load",
    "queue.task.write",
    "queue.lease.create",
    "queue.heartbeat",
    "queue.attempts.read",
    "queue.attempts.write",
    "worker.claim",
    "checkpoint.write",
    "checkpoint.read",
    "telemetry.flush",
)


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault: *the n-th hit of point P performs action A*.

    Attributes
    ----------
    point:
        Injection-point name the rule matches (exact match, or a prefix
        when it ends with ``*`` — e.g. ``queue.*``).
    action:
        One of :data:`ACTIONS`.
    at:
        1-based hit index of the point at which the rule fires.  Hit
        counting is per-process and per-point, so the schedule is
        deterministic given the same execution path.
    count:
        Consecutive hits (starting at ``at``) the rule fires for; the
        default 1 fires exactly once.  ``raise`` rules with ``count=1``
        compose with bounded retries: the retried attempt passes.
    errno_name:
        Errno symbol for ``raise`` (``EIO``, ``ENOSPC``, ``ESTALE``...).
    truncate_at:
        ``torn``: payload bytes actually written before the simulated crash.
    delay_s / skew_s:
        Seconds for ``delay`` (sleep) and ``skew`` (mtime shift backwards).
    """

    point: str
    action: str
    at: int = 1
    count: int = 1
    errno_name: str = "EIO"
    truncate_at: int = 24
    delay_s: float = 0.0
    skew_s: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if self.at < 1:
            raise ValueError("at must be >= 1 (1-based hit index)")
        if self.count < 0:
            raise ValueError("count must be non-negative (0 = every hit)")
        if not hasattr(errno_module, self.errno_name):
            raise ValueError(f"unknown errno name {self.errno_name!r}")

    def matches(self, point: str, hit: int) -> bool:
        """Does this rule fire at the given hit of the given point?"""
        if self.point.endswith("*"):
            if not point.startswith(self.point[:-1]):
                return False
        elif point != self.point:
            return False
        if hit < self.at:
            return False
        return self.count == 0 or hit < self.at + self.count

    @property
    def errno(self) -> int:
        return getattr(errno_module, self.errno_name)


@dataclass(frozen=True)
class FaultPlan:
    """A serialisable schedule of :class:`FaultRule`\\ s.

    Plans are pure data — JSON round-trippable, environment-variable
    transportable — and their *generation* is deterministic:
    :meth:`randomized` maps ``(seed, knobs)`` to the same rule list every
    time, which is what makes ``perigee-sim chaos --seed S`` reproducible.
    """

    rules: tuple[FaultRule, ...] = ()
    seed: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "rules": [asdict(rule) for rule in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        rules = tuple(
            FaultRule(**rule) for rule in payload.get("rules", ())
        )
        seed = payload.get("seed")
        return cls(rules=rules, seed=None if seed is None else int(seed))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def randomized(
        cls,
        seed: int,
        fires: int = 4,
        points: Sequence[str] = DEFAULT_POINTS,
        actions: Sequence[str] = ("crash", "torn", "raise", "delay", "skew"),
        max_at: int = 12,
        delay_s: float = 1.0,
        skew_s: float = 120.0,
    ) -> "FaultPlan":
        """Deterministically derive a mixed fault schedule from a seed.

        ``random.Random`` (not ``numpy``) keeps the draw stable across
        library versions; the plan never touches simulation RNG streams.
        ``crash``/``torn`` rules are process-fatal, so a plan with ``fires``
        rules kills a worker at most ``fires`` times — the chaos harness
        bounds total incarnations by bounding total fires.
        """
        rng = random.Random(seed)
        rules = []
        for _ in range(max(0, fires)):
            action = actions[rng.randrange(len(actions))]
            if action in ("delay", "skew"):
                # Only mtime-bearing seams make sense for these actions.
                point = "queue.heartbeat"
            else:
                point = points[rng.randrange(len(points))]
            rules.append(
                FaultRule(
                    point=point,
                    action=action,
                    at=rng.randrange(1, max_at + 1),
                    errno_name=("EIO", "ENOSPC")[rng.randrange(2)],
                    truncate_at=rng.randrange(1, 48),
                    delay_s=delay_s if action == "delay" else 0.0,
                    skew_s=skew_s if action == "skew" else 0.0,
                )
            )
        return cls(rules=tuple(rules), seed=seed)


class NullFaultPlane:
    """Fault plane that injects nothing; the process-wide default."""

    enabled = False

    def fire(
        self,
        point: str,
        path: str | os.PathLike | None = None,
        data: bytes | None = None,
        append: bool = True,
    ) -> None:
        return None


class FaultPlane:
    """Executes a :class:`FaultPlan` against named injection points.

    Hit counters are per-point and guarded by a lock (the worker heartbeat
    thread fires points concurrently with the task thread).  The plane
    never touches simulation state or RNG streams — determinism of the
    *surviving* computation is untouched; only the IO around it misbehaves.
    """

    enabled = True

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._lock = threading.Lock()
        self._hits: dict[str, int] = {}
        self._fired: list[tuple[str, str, int]] = []

    @property
    def fired(self) -> list[tuple[str, str, int]]:
        """``(point, action, hit)`` triples of every fault executed so far
        (``crash``/``torn`` entries are only observable pre-exit, e.g. in
        tests that monkeypatch ``os._exit``)."""
        with self._lock:
            return list(self._fired)

    def hits(self, point: str) -> int:
        with self._lock:
            return self._hits.get(point, 0)

    def fire(
        self,
        point: str,
        path: str | os.PathLike | None = None,
        data: bytes | None = None,
        append: bool = True,
    ) -> None:
        """Register one hit of ``point`` and execute any matching rule.

        ``path``/``data`` give destructive actions something to chew on:
        ``torn`` writes ``data[:truncate_at]`` to ``path`` (``append``
        selects append vs truncate-write) before exiting, ``skew`` shifts
        ``path``'s mtime.  A destructive rule firing at a point that
        passed no target degrades to a plain ``crash``/no-op respectively.
        """
        with self._lock:
            hit = self._hits.get(point, 0) + 1
            self._hits[point] = hit
            rule = next(
                (r for r in self.plan.rules if r.matches(point, hit)), None
            )
            if rule is None:
                return
            self._fired.append((point, rule.action, hit))
        get_recorder().incr("fault.fired", point=point, action=rule.action)
        self._execute(rule, point, path, data, append)

    def _execute(
        self,
        rule: FaultRule,
        point: str,
        path: str | os.PathLike | None,
        data: bytes | None,
        append: bool,
    ) -> None:
        if rule.action == "raise":
            raise OSError(
                rule.errno,
                f"{os.strerror(rule.errno)} [injected fault at {point}]",
            )
        if rule.action == "delay":
            time.sleep(rule.delay_s)
            return
        if rule.action == "skew":
            if path is not None:
                try:
                    stat = os.stat(path)
                    shifted = stat.st_mtime - rule.skew_s
                    os.utime(path, (shifted, shifted))
                except OSError:
                    pass
            return
        # crash / torn: the process dies here.  torn first leaves the exact
        # partial write a mid-append kill would have.
        if rule.action == "torn" and path is not None and data is not None:
            try:
                mode = "ab" if append else "wb"
                with open(path, mode) as handle:
                    handle.write(data[: rule.truncate_at])
                    handle.flush()
                    os.fsync(handle.fileno())
            except OSError:
                pass
        print(
            f"[fault-plane] {rule.action} at {point} "
            f"(hit {self.hits(point)})",
            file=sys.stderr,
            flush=True,
        )
        os._exit(FAULT_EXIT_CODE)


#: Process-wide default plane instance.
NULL_FAULT_PLANE = NullFaultPlane()

#: Union type accepted everywhere a plane is passed around.
FaultInjector = NullFaultPlane | FaultPlane

_SLOT: InstrumentSlot[FaultInjector] = InstrumentSlot(NULL_FAULT_PLANE)

#: The active plane (the no-op :data:`NULL_FAULT_PLANE` by default).
get_fault_plane = _SLOT.get
#: Install a plane process-wide; returns the previous one.
set_fault_plane = _SLOT.set
#: ``with use_fault_plane(plane): ...`` — scoped installation.
use_fault_plane = _SLOT.use


def install_fault_plane_from_env(
    environ: Mapping[str, str] | None = None,
) -> "FaultInjector":
    """Install a plane from :data:`FAULT_PLAN_ENV`, if set.

    The variable holds either inline JSON (``{"rules": [...]}``) or a path
    to a JSON file.  Returns the active plane either way, so callers can
    unconditionally ``install_fault_plane_from_env()`` at process startup —
    the common case (variable unset) is a dictionary lookup and nothing
    else.  A malformed plan raises rather than silently running clean:
    a chaos harness that thinks it is injecting faults but is not would
    report vacuous byte-identity.
    """
    env = os.environ if environ is None else environ
    raw = env.get(FAULT_PLAN_ENV)
    if not raw:
        return get_fault_plane()
    text = raw.strip()
    if not text.startswith("{"):
        text = Path(text).read_text(encoding="utf-8")
    plane = FaultPlane(FaultPlan.from_json(text))
    set_fault_plane(plane)
    return plane
