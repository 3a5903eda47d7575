"""Tests for the large-network scenario, the scaling study, shard compaction
and cluster-routed resume (the PR-3 runtime satellites)."""

import json

import numpy as np
import pytest

from repro.analysis.experiments import (
    EXPERIMENT_SPECS,
    NetworkScalingResult,
    build_experiment_specs,
    run_experiment,
    scaling_specs,
)
from repro.cli import build_parser, main
from repro.config import default_config
from repro.datasets.regions import REGION_PROPORTIONS
from repro.runtime import (
    ResultStore,
    SerialExecutor,
    SweepSpec,
    execute_sweep,
)
from repro.runtime.scenarios import available_scenarios, get_scenario


# --------------------------------------------------------------------------- #
# large-network scenario
# --------------------------------------------------------------------------- #
class TestLargeNetworkScenario:
    def test_registered(self):
        assert "large-network" in available_scenarios()

    def test_exact_bitnodes_region_mix(self):
        scenario = get_scenario("large-network")
        config = default_config(num_nodes=1000)
        population = scenario.build_population(
            config, {}, np.random.default_rng(0)
        )
        counts = population.region_counts()
        for region, proportion in REGION_PROPORTIONS.items():
            assert counts[region] == round(proportion * 1000)

    def test_counts_sum_to_population_at_odd_sizes(self):
        scenario = get_scenario("large-network")
        for size in (13, 113, 2003):
            config = default_config(num_nodes=size)
            population = scenario.build_population(
                config, {}, np.random.default_rng(1)
            )
            assert sum(population.region_counts().values()) == size

    def test_deterministic_given_rng(self):
        scenario = get_scenario("large-network")
        config = default_config(num_nodes=200)
        first = scenario.build_population(config, {}, np.random.default_rng(3))
        second = scenario.build_population(config, {}, np.random.default_rng(3))
        assert first.regions == second.regions
        assert np.array_equal(first.hash_power, second.hash_power)

    def test_cannot_be_unregistered(self):
        from repro.runtime.scenarios import unregister_scenario

        with pytest.raises(ValueError):
            unregister_scenario("large-network")


# --------------------------------------------------------------------------- #
# scaling specs + runner
# --------------------------------------------------------------------------- #
class TestScalingSpecs:
    def test_default_ladder_halves_down_to_300(self):
        specs = scaling_specs(num_nodes=2000)
        sizes = [spec.config.num_nodes for spec in specs]
        assert sizes == [500, 1000, 2000]
        assert [spec.name for spec in specs] == [
            "scaling-n500",
            "scaling-n1000",
            "scaling-n2000",
        ]
        assert all(spec.scenario == "large-network" for spec in specs)

    def test_small_request_is_single_size(self):
        specs = scaling_specs(num_nodes=300)
        assert [spec.config.num_nodes for spec in specs] == [300]

    def test_explicit_sizes_override_ladder(self):
        specs = scaling_specs(sizes=(40, 20, 40))
        assert [spec.config.num_nodes for spec in specs] == [20, 40]

    def test_registered_as_experiment(self):
        assert "scaling" in EXPERIMENT_SPECS
        specs = build_experiment_specs(
            "scaling", num_nodes=40, rounds=2, repeats=1, seed=0
        )
        assert [spec.config.num_nodes for spec in specs] == [40]

    def test_run_scaling_smoke_with_store(self, tmp_path):
        result = run_experiment(
            "scaling",
            sizes=(20, 30),
            rounds=2,
            blocks_per_round=6,
            seed=0,
            store=tmp_path / "store",
        )
        assert isinstance(result, NetworkScalingResult)
        assert result.sizes == (20, 30)
        for size in result.sizes:
            assert set(result.results[size].curves) == {
                "random",
                "perigee-subset",
            }
        improvements = result.improvements()
        assert set(improvements) == {20, 30}
        # A second run is served entirely from the store, byte-identically.
        cached = run_experiment(
            "scaling",
            sizes=(20, 30),
            rounds=2,
            blocks_per_round=6,
            seed=0,
            store=tmp_path / "store",
        )
        for size in result.sizes:
            assert (
                cached.results[size].curves["random"].sorted_delays_ms.tobytes()
                == result.results[size].curves["random"].sorted_delays_ms.tobytes()
            )

    def test_cli_runs_scaling(self, capsys):
        assert main(["scaling", "--num-nodes", "30", "--rounds", "2"]) == 0
        output = capsys.readouterr().out
        assert "scaling" in output.lower()
        assert "network size" in output


# --------------------------------------------------------------------------- #
# shard compaction
# --------------------------------------------------------------------------- #
def _tiny_spec(name="compaction", seed=0):
    config = default_config(
        num_nodes=20, rounds=2, blocks_per_round=5, seed=seed
    )
    return SweepSpec(
        name=name, config=config, protocols=("random", "ideal"), repeats=1
    )


class TestCompaction:
    def _sharded_store(self, tmp_path):
        """A store whose records live in two worker shards plus duplicates."""
        store = ResultStore(tmp_path / "store")
        spec = _tiny_spec()
        records = execute_sweep(spec, executor=SerialExecutor())
        first, second = records
        store.for_writer("worker-a").append(first)
        store.for_writer("worker-b").append(second)
        # A duplicate completion (reclaimed lease) and a superseded failure.
        store.for_writer("worker-b").append(first)
        failed = type(second)(
            key=second.key, task=second.task, status="failed", error="boom"
        )
        store.for_writer("worker-a").append(failed)
        return store, spec, records

    def test_compact_merges_shards_into_results_jsonl(self, tmp_path):
        store, spec, records = self._sharded_store(tmp_path)
        before = store.load()
        outcome = store.compact()
        assert outcome.records == 2
        assert outcome.shards_removed == 2
        assert outcome.lines_before == 4
        assert (store.directory / "results.jsonl").exists()
        assert not list(store.directory.glob("results-*.jsonl"))
        after = store.load()
        assert set(after) == set(before)
        for key, record in after.items():
            assert record.ok
            assert record.to_dict() == before[key].to_dict()

    def test_compact_prefers_ok_over_failed(self, tmp_path):
        store, _, records = self._sharded_store(tmp_path)
        store.compact()
        merged = store.load()
        assert all(record.ok for record in merged.values())

    def test_compacted_store_still_serves_resume_cache(self, tmp_path):
        store, spec, _ = self._sharded_store(tmp_path)
        store.compact()
        replay = execute_sweep(spec, executor=SerialExecutor(), store=store)
        assert all(record.cached for record in replay)

    def test_compact_empty_store_is_a_no_op(self, tmp_path):
        store = ResultStore(tmp_path / "missing")
        outcome = store.compact()
        assert outcome.records == 0
        assert outcome.shards_removed == 0
        assert not (tmp_path / "missing").exists()

    def test_writer_bound_store_cannot_compact(self, tmp_path):
        store = ResultStore(tmp_path / "store").for_writer("w1")
        with pytest.raises(RuntimeError):
            store.compact()

    def test_compact_is_idempotent(self, tmp_path):
        store, _, _ = self._sharded_store(tmp_path)
        first = store.compact()
        second = store.compact()
        assert second.records == first.records
        assert second.shards_removed == 0
        assert len(store.load()) == first.records

    def test_cli_compact_command(self, tmp_path, capsys):
        store, _, _ = self._sharded_store(tmp_path)
        assert main(["compact", "--store", str(store.directory)]) == 0
        output = capsys.readouterr().out
        assert "compacted" in output
        assert "2 record(s)" in output


# --------------------------------------------------------------------------- #
# resume --cluster
# --------------------------------------------------------------------------- #
class TestClusterResume:
    def test_parser_accepts_cluster_flag(self):
        parser = build_parser()
        args = parser.parse_args(["resume", "--store", "runs/", "--cluster"])
        assert args.cluster is True

    def test_cluster_flag_rejects_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(["resume", "--store", "runs/", "--cluster", "--workers", "2"])
        assert "mutually exclusive" in capsys.readouterr().err

    def test_resume_cluster_completes_missing_tasks(self, tmp_path, capsys):
        store = ResultStore(tmp_path / "store")
        spec = _tiny_spec(name="resumable")
        # Persist the spec and only the first task's record: the second task
        # is "missing" exactly as after an interrupted sweep.
        store.save_spec(spec)
        records = execute_sweep(spec, executor=SerialExecutor())
        store.append(records[0])
        assert main(["resume", "--store", str(store.directory), "--cluster"]) == 0
        output = capsys.readouterr().out
        assert "1 task(s) executed, 1 from store" in output
        # The completion went through the cluster queue: the new record sits
        # in a worker shard, and it matches the serial run byte for byte.
        shards = list(store.directory.glob("results-*.jsonl"))
        assert shards
        merged = store.load()
        assert merged[records[1].key].ok
        assert json.dumps(merged[records[1].key].task.to_dict()) == json.dumps(
            records[1].task.to_dict()
        )
        assert merged[records[1].key].reach90 == records[1].reach90
