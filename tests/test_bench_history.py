"""Benchmark history recording is opt-in: a plain test run changes no file."""

from __future__ import annotations

from benchmarks import history
from benchmarks.conftest import emit_bench_json


def test_bench_record_leaves_tracked_history_unchanged(monkeypatch, capsys):
    monkeypatch.delenv("PERIGEE_BENCH_HISTORY", raising=False)
    before = history.history_path().read_bytes()
    emit_bench_json({"bench": "history-opt-in", "wall_s": 1.0})
    assert history.history_path().read_bytes() == before
    assert capsys.readouterr().out.startswith("BENCH-JSON ")


def test_history_records_only_when_enabled(monkeypatch, tmp_path):
    target = tmp_path / "history.jsonl"
    record = {"bench": "history-opt-in", "wall_s": 1.0}
    for disabled in (None, "0", "yes"):
        if disabled is None:
            monkeypatch.delenv("PERIGEE_BENCH_HISTORY", raising=False)
        else:
            monkeypatch.setenv("PERIGEE_BENCH_HISTORY", disabled)
        history.append_record(record, path=target)
        assert not target.exists()
    monkeypatch.setenv("PERIGEE_BENCH_HISTORY", "1")
    history.append_record(record, path=target)
    assert [entry["record"] for entry in history.iter_entries(target)] == [record]
