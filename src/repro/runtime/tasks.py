"""Declarative task model for experiment sweeps.

A :class:`SweepSpec` describes a protocols x repeats grid over one
configuration and scenario; :meth:`SweepSpec.expand` turns it into
self-contained :class:`Task` descriptions.  Tasks are:

* **hashable and picklable** — every field is a plain string/int/bool (the
  configuration and scenario parameters are carried as canonical JSON), so a
  task can cross process boundaries and serve as a dictionary key;
* **content-addressed** — :meth:`Task.content_hash` is a SHA-256 over the
  canonical JSON of all fields, used by the result store to cache and resume
  sweeps.  Any change to any configuration field changes the hash;
* **deterministically seeded** — per-task generators are derived from
  ``numpy.random.SeedSequence`` spawn keys rather than arithmetic on the base
  seed or Python's process-salted ``hash()``.  Two independent streams exist
  per task:

  - the *environment* stream ``SeedSequence(seed, spawn_key=(repeat, 0))``
    draws the population and latency matrix.  It depends only on the repeat
    index, so every protocol within a repeat sees the *same* draw (the
    paper's methodology) and adding repeats never perturbs earlier ones;
  - the *protocol* stream ``SeedSequence(seed, spawn_key=(repeat, 1, key))``
    drives topology initialisation, mining and exploration, where ``key`` is
    a stable CRC-32 of the protocol name.  Streams are therefore independent
    across tasks, which is what makes parallel execution bit-for-bit equal
    to serial execution.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, Mapping

import numpy as np

from repro.config import SimulationConfig
from repro.metrics.evaluator import DelayEvaluator

#: Schema version stamped into every persisted task record.
SCHEMA_VERSION = 1

#: Spawn-key discriminators for the two per-task RNG streams.
_ENVIRONMENT_STREAM = 0
_PROTOCOL_STREAM = 1


def canonical_json(payload: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def protocol_stream_key(protocol: str) -> int:
    """Stable 32-bit stream identifier for a protocol name.

    ``zlib.crc32`` is used instead of ``hash()`` because the latter is salted
    per process, which would make worker processes disagree with the parent
    about every seed.
    """
    return zlib.crc32(protocol.encode("utf-8"))


@dataclass(frozen=True)
class Task:
    """One cell of an experiment grid: a protocol run on one repeat's draw.

    Attributes
    ----------
    experiment:
        Name of the sweep the task belongs to (e.g. ``"figure3a"``).
    protocol:
        Registry name of the protocol to run.
    repeat:
        Zero-based repeat (independent population/latency draw) index.
    rounds:
        Number of adaptive-protocol rounds to run.
    config_json:
        Canonical JSON of the :class:`SimulationConfig` (see
        :func:`repro.config.SimulationConfig.to_dict`).
    scenario:
        Name of the registered environment scenario (see
        :mod:`repro.runtime.scenarios`).
    params_json:
        Canonical JSON of the scenario parameters.
    collect_histogram:
        Whether to also compute the Figure 5 edge-latency histogram of the
        final topology.
    evaluation_json:
        Canonical JSON of the delay-evaluation parameters (see
        :class:`repro.metrics.evaluator.DelayEvaluator.from_params`).  The
        default (``"{}"``) means the default evaluation policy; only
        non-default parameters enter the content hash, so pre-existing task
        hashes — and therefore stored results — remain valid.
    flight:
        Whether the executing worker should attach a flight recorder
        (:mod:`repro.telemetry.flight`) and persist a per-round trace under
        ``<store>/runs/<hash>/``.  Recording is observation-only and
        bit-identical, so this flag is deliberately **excluded** from the
        content hash: a recorded and an unrecorded run produce the same
        record, and cached results stay valid either way.
    checkpoint_every:
        Write a simulator checkpoint every this many rounds while the task
        executes (``0`` disables checkpointing).  Like ``flight`` this is
        execution policy, not task identity: resume from a checkpoint is
        bit-identical to an uninterrupted run, so the field is **excluded**
        from the content hash and cached records stay valid either way.
    """

    experiment: str
    protocol: str
    repeat: int
    rounds: int
    config_json: str
    scenario: str = "default"
    params_json: str = "{}"
    collect_histogram: bool = False
    evaluation_json: str = "{}"
    flight: bool = False
    checkpoint_every: int = 0

    @property
    def config(self) -> SimulationConfig:
        return SimulationConfig.from_dict(json.loads(self.config_json))

    @property
    def scenario_params(self) -> dict[str, Any]:
        return json.loads(self.params_json)

    @property
    def evaluation_params(self) -> dict[str, Any]:
        return json.loads(self.evaluation_json)

    def content_hash(self) -> str:
        """SHA-256 content address over every field of the task."""
        payload_dict = {
            "schema": SCHEMA_VERSION,
            "experiment": self.experiment,
            "protocol": self.protocol,
            "repeat": self.repeat,
            "rounds": self.rounds,
            "config": json.loads(self.config_json),
            "scenario": self.scenario,
            "params": json.loads(self.params_json),
            "collect_histogram": self.collect_histogram,
        }
        evaluation = json.loads(self.evaluation_json)
        if evaluation:
            payload_dict["evaluation"] = evaluation
        payload = canonical_json(payload_dict)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def environment_seed(self) -> np.random.SeedSequence:
        """Seed sequence for the shared population/latency draw of a repeat."""
        base = json.loads(self.config_json)["seed"]
        return np.random.SeedSequence(
            entropy=base, spawn_key=(self.repeat, _ENVIRONMENT_STREAM)
        )

    def protocol_seed(self) -> np.random.SeedSequence:
        """Seed sequence for this task's private protocol stream."""
        base = json.loads(self.config_json)["seed"]
        return np.random.SeedSequence(
            entropy=base,
            spawn_key=(
                self.repeat,
                _PROTOCOL_STREAM,
                protocol_stream_key(self.protocol),
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "protocol": self.protocol,
            "repeat": self.repeat,
            "rounds": self.rounds,
            "config": json.loads(self.config_json),
            "scenario": self.scenario,
            "params": json.loads(self.params_json),
            "collect_histogram": self.collect_histogram,
            "evaluation": json.loads(self.evaluation_json),
            "flight": self.flight,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Task":
        return cls(
            experiment=data["experiment"],
            protocol=data["protocol"],
            repeat=int(data["repeat"]),
            rounds=int(data["rounds"]),
            config_json=canonical_json(data["config"]),
            scenario=data.get("scenario", "default"),
            params_json=canonical_json(data.get("params", {})),
            collect_histogram=bool(data.get("collect_histogram", False)),
            evaluation_json=canonical_json(data.get("evaluation", {})),
            flight=bool(data.get("flight", False)),
            checkpoint_every=int(data.get("checkpoint_every", 0)),
        )


@dataclass
class TaskRecord:
    """Outcome of executing one :class:`Task` — the unit the store persists.

    ``reach90``/``reach50`` hold the raw (unsorted) per-source reach times in
    milliseconds; sorting and averaging happen at aggregation time so the
    stored record is the most re-usable form.  ``cached`` and ``shard`` are
    runtime-only bookkeeping and are never serialised: ``cached`` is ``True``
    when the record was served from a store instead of being executed, and
    ``shard`` is the results file a store scan read it from.
    """

    key: str
    task: Task
    status: str = "ok"
    error: str | None = None
    duration_s: float = 0.0
    reach90: list[float] = field(default_factory=list)
    reach50: list[float] = field(default_factory=list)
    histogram: dict[str, Any] | None = None
    evaluation: dict[str, Any] | None = None
    cached: bool = False
    shard: Path | None = field(default=None, compare=False, repr=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def mark_cached(self) -> "TaskRecord":
        return replace(self, cached=True)

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "key": self.key,
            "task": self.task.to_dict(),
            "status": self.status,
            "error": self.error,
            "duration_s": self.duration_s,
            "reach90": self.reach90,
            "reach50": self.reach50,
            "histogram": self.histogram,
            "evaluation": self.evaluation,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TaskRecord":
        return cls(
            key=data["key"],
            task=Task.from_dict(data["task"]),
            status=data.get("status", "ok"),
            error=data.get("error"),
            duration_s=float(data.get("duration_s", 0.0)),
            reach90=[float(x) for x in data.get("reach90", [])],
            reach50=[float(x) for x in data.get("reach50", [])],
            histogram=data.get("histogram"),
            evaluation=data.get("evaluation"),
        )


@dataclass(frozen=True)
class SweepSpec:
    """Declarative description of a protocols x repeats grid.

    Attributes
    ----------
    name:
        Sweep identifier; also keys the spec inside a result store so
        interrupted sweeps can be resumed by name.
    config:
        Shared simulation configuration (its ``seed`` is the base seed all
        per-task seeds are spawned from).
    protocols:
        Registry names of the protocols to compare.
    repeats:
        Number of independent population/latency draws (the paper uses 3).
    rounds:
        Rounds to run adaptive protocols for; defaults to ``config.rounds``.
    scenario:
        Registered scenario name building the environment of each repeat.
    scenario_params:
        JSON-serialisable parameters forwarded to the scenario builders.
    collect_histograms:
        Compute Figure 5 edge-latency histograms on the first repeat.
    evaluation:
        Delay-evaluation parameters forwarded to every task (see
        :class:`repro.metrics.evaluator.DelayEvaluator.from_params`); empty
        means the default policy and leaves task hashes untouched.  Stored
        normalised (explicit defaults dropped); unknown or invalid
        parameters raise ``ValueError`` here.
    flight:
        Ask executing workers to flight-record every task of the sweep
        (hash-neutral; see :attr:`Task.flight`).
    checkpoint_every:
        Ask executors to checkpoint every task of the sweep at this round
        interval (``0`` disables; hash-neutral, see
        :attr:`Task.checkpoint_every`).
    """

    name: str
    config: SimulationConfig
    protocols: tuple[str, ...]
    repeats: int = 1
    rounds: int | None = None
    scenario: str = "default"
    scenario_params: Mapping[str, Any] = field(default_factory=dict)
    collect_histograms: bool = False
    evaluation: Mapping[str, Any] = field(default_factory=dict)
    flight: bool = False
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if not self.protocols:
            raise ValueError("protocols must be non-empty")
        if self.repeats < 1:
            raise ValueError("repeats must be positive")
        if self.rounds is not None and self.rounds < 1:
            raise ValueError("rounds must be positive when given")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        object.__setattr__(
            self,
            "evaluation",
            DelayEvaluator.from_params(self.evaluation).to_params(),
        )

    @property
    def effective_rounds(self) -> int:
        return self.config.rounds if self.rounds is None else self.rounds

    @property
    def num_tasks(self) -> int:
        return self.repeats * len(self.protocols)

    def expand(self) -> list[Task]:
        """Expand the grid into tasks, repeat-major then protocol order."""
        return list(self)

    def __iter__(self) -> Iterator[Task]:
        config_json = canonical_json(self.config.to_dict())
        params_json = canonical_json(dict(self.scenario_params))
        evaluation_json = canonical_json(dict(self.evaluation))
        for repeat in range(self.repeats):
            for protocol in self.protocols:
                yield Task(
                    experiment=self.name,
                    protocol=protocol,
                    repeat=repeat,
                    rounds=self.effective_rounds,
                    config_json=config_json,
                    scenario=self.scenario,
                    params_json=params_json,
                    collect_histogram=self.collect_histograms and repeat == 0,
                    evaluation_json=evaluation_json,
                    flight=self.flight,
                    checkpoint_every=self.checkpoint_every,
                )

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "name": self.name,
            "config": self.config.to_dict(),
            "protocols": list(self.protocols),
            "repeats": self.repeats,
            "rounds": self.rounds,
            "scenario": self.scenario,
            "scenario_params": dict(self.scenario_params),
            "collect_histograms": self.collect_histograms,
            "evaluation": dict(self.evaluation),
            "flight": self.flight,
            "checkpoint_every": self.checkpoint_every,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SweepSpec":
        return cls(
            name=data["name"],
            config=SimulationConfig.from_dict(data["config"]),
            protocols=tuple(data["protocols"]),
            repeats=int(data["repeats"]),
            rounds=None if data.get("rounds") is None else int(data["rounds"]),
            scenario=data.get("scenario", "default"),
            scenario_params=dict(data.get("scenario_params", {})),
            collect_histograms=bool(data.get("collect_histograms", False)),
            evaluation=dict(data.get("evaluation", {})),
            flight=bool(data.get("flight", False)),
            checkpoint_every=int(data.get("checkpoint_every", 0)),
        )
