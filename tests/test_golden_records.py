"""Golden sweep records: the cross-commit oracle for every figure's grid.

Every ``EXPERIMENT_SPECS`` builder runs serially at a small scale (40 nodes,
80 for the scaling ladder, 3 rounds, seed 0), both through ``execute_sweep``
and through ``run_experiment`` into a result store.  Each record is reduced to the
sha256 of its canonical JSON (``sort_keys=True``) without the wall-clock
``duration_s``, and ``tests/fixtures/golden_records.json`` maps every task's
content hash to that digest.  A change that moves any record — a reach
curve, a histogram, an evaluation field, the task description itself —
fails here with the keys that differ.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.experiments import (
    EXPERIMENT_SPECS,
    build_experiment_specs,
    run_experiment,
)
from repro.runtime.executor import execute_sweep
from repro.runtime.store import ResultStore

FIXTURE = Path(__file__).parent / "fixtures" / "golden_records.json"
GOLDEN: dict[str, str] = json.loads(FIXTURE.read_text())


def golden_grid(name: str) -> dict:
    return {"num_nodes": 80 if name == "scaling" else 40, "rounds": 3, "seed": 0}


def golden_specs(name: str):
    return build_experiment_specs(name, **golden_grid(name))


def record_digest(record) -> str:
    data = record.to_dict()
    del data["duration_s"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_fixture_covers_every_experiment_grid():
    keys = {
        task.content_hash()
        for name in EXPERIMENT_SPECS
        for spec in golden_specs(name)
        for task in spec.expand()
    }
    assert keys == set(GOLDEN)


@pytest.mark.parametrize("name", sorted(EXPERIMENT_SPECS))
def test_sweep_records_match_golden(name, tmp_path):
    executed = {
        record.key: record
        for spec in golden_specs(name)
        for record in execute_sweep(spec)
    }
    run_experiment(name, store=tmp_path, **golden_grid(name))
    stored = ResultStore(tmp_path).load()
    assert set(stored) == set(executed)
    for records in (executed, stored):
        for record in records.values():
            assert record.ok, f"{record.key}: {record.error}"
        differing = sorted(
            key
            for key, record in records.items()
            if GOLDEN.get(key) != record_digest(record)
        )
        assert not differing, f"records differ from the golden fixture: {differing}"
