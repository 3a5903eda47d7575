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


def test_check_compares_each_rung_of_one_bench(monkeypatch, tmp_path, capsys):
    target = tmp_path / "history.jsonl"
    monkeypatch.setenv("PERIGEE_BENCH_HISTORY", "1")

    def rung(sha, churn, round_s, op_ms):
        monkeypatch.setattr(history, "git_sha", lambda: sha)
        history.append_record(
            {
                "bench": "engine-incremental",
                "num_nodes": 2000,
                "churn_edges": churn,
                "incremental_round_s": round_s,
                "op_ms": op_ms,
            },
            path=target,
        )

    # Keyed by bench id alone, the churn-256 rung would shadow the churn-0
    # one and the churn-0 regression would go unseen.
    rung("old", 0, 1.0, 10.0)
    rung("old", 256, 5.0, 10.0)
    rung("new", 0, 2.0, 10.0)
    rung("new", 256, 5.0, 20.0)
    warnings = history.check(path=target, sha="new")
    assert len(warnings) == 2
    assert "churn_edges=0" in warnings[0] and "incremental_round_s" in warnings[0]
    assert "churn_edges=256" in warnings[1] and "op_ms" in warnings[1]
    out = capsys.readouterr().out
    assert out.count("2 timing field(s) compared against old") == 2
    # Advisory: regressions warn but never fail the command.
    monkeypatch.setattr(history, "history_path", lambda: target)
    assert history.main(["check"]) == 0
