"""Tests for the parallel experiment runtime (repro.runtime)."""

import json

import numpy as np
import pytest

from repro.config import default_config
from repro.runtime.aggregate import failed_records, records_to_result
from repro.runtime.executor import (
    ParallelExecutor,
    SerialExecutor,
    execute_sweep,
    run_task,
)
from repro.runtime.scenarios import (
    Scenario,
    available_scenarios,
    get_scenario,
    register_scenario,
    unregister_scenario,
)
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec, Task, TaskRecord, protocol_stream_key

CONFIG = default_config(num_nodes=30, rounds=2, blocks_per_round=8, seed=11)


def make_spec(**overrides) -> SweepSpec:
    fields = dict(
        name="unit",
        config=CONFIG,
        protocols=("random", "perigee-subset"),
        repeats=2,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


class TestTaskModel:
    def test_expand_grid_order_and_count(self):
        spec = make_spec()
        tasks = spec.expand()
        assert len(tasks) == spec.num_tasks == 4
        assert [(t.repeat, t.protocol) for t in tasks] == [
            (0, "random"),
            (0, "perigee-subset"),
            (1, "random"),
            (1, "perigee-subset"),
        ]

    def test_tasks_are_hashable_and_usable_as_keys(self):
        tasks = make_spec().expand()
        lookup = {task: task.content_hash() for task in tasks}
        assert len(lookup) == len(tasks)
        assert lookup[tasks[0]] == tasks[0].content_hash()

    def test_histograms_only_on_first_repeat(self):
        tasks = make_spec(collect_histograms=True).expand()
        assert [t.collect_histogram for t in tasks] == [True, True, False, False]

    def test_content_hash_changes_with_any_config_field(self):
        base = make_spec().expand()[0]
        baseline = base.content_hash()
        for override in (
            {"num_nodes": 31},
            {"seed": 12},
            {"validation_delay_ms": 51.0},
            {"blocks_per_round": 9},
            {"out_degree": 7},
            {"hash_power_distribution": "exponential"},
        ):
            changed = make_spec(config=CONFIG.with_overrides(**override)).expand()[0]
            assert changed.content_hash() != baseline, override

    def test_content_hash_changes_with_task_fields(self):
        spec = make_spec()
        tasks = spec.expand()
        hashes = {t.content_hash() for t in tasks}
        assert len(hashes) == len(tasks)
        assert (
            make_spec(rounds=3).expand()[0].content_hash()
            != tasks[0].content_hash()
        )
        assert (
            make_spec(scenario_params={"speedup": 0.2}, scenario="miner-speedup")
            .expand()[0]
            .content_hash()
            != tasks[0].content_hash()
        )

    def test_content_hash_stable_across_reconstruction(self):
        task = make_spec().expand()[0]
        rebuilt = Task.from_dict(json.loads(json.dumps(task.to_dict())))
        assert rebuilt == task
        assert rebuilt.content_hash() == task.content_hash()

    def test_spec_roundtrip(self):
        spec = make_spec(
            scenario="relay",
            scenario_params={"relay_size": 5},
            collect_histograms=True,
            rounds=4,
        )
        rebuilt = SweepSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert rebuilt == spec
        assert rebuilt.expand() == spec.expand()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            make_spec(protocols=())
        with pytest.raises(ValueError):
            make_spec(repeats=0)
        with pytest.raises(ValueError):
            make_spec(rounds=0)

    def test_environment_seed_shared_within_repeat(self):
        tasks = make_spec().expand()
        same_repeat = [t for t in tasks if t.repeat == 0]
        states = {t.environment_seed().generate_state(4).tobytes() for t in same_repeat}
        assert len(states) == 1
        across_repeats = {
            t.environment_seed().generate_state(4).tobytes() for t in tasks
        }
        assert len(across_repeats) == 2

    def test_protocol_seed_unique_per_task(self):
        tasks = make_spec().expand()
        states = {t.protocol_seed().generate_state(4).tobytes() for t in tasks}
        assert len(states) == len(tasks)

    def test_protocol_stream_key_is_process_stable(self):
        assert protocol_stream_key("perigee-subset") == protocol_stream_key(
            "perigee-subset"
        )
        assert protocol_stream_key("random") != protocol_stream_key("ideal")


class TestScenarios:
    def test_builtin_scenarios_present(self):
        assert {"default", "miner-speedup", "relay"} <= set(available_scenarios())
        with pytest.raises(KeyError):
            get_scenario("nonexistent")

    def test_register_and_unregister(self):
        scenario = Scenario(
            name="unit-test-scenario",
            build_population=get_scenario("default").build_population,
            build_latency=get_scenario("default").build_latency,
        )
        register_scenario(scenario)
        try:
            assert get_scenario("unit-test-scenario") is scenario
            with pytest.raises(ValueError):
                register_scenario(scenario)
        finally:
            unregister_scenario("unit-test-scenario")
        with pytest.raises(ValueError):
            unregister_scenario("default")

    def test_swept_metric_config_runs_on_metric_latency(self, monkeypatch):
        """A sweep task honours ``latency_model`` exactly as ``Simulator``."""
        import repro.runtime.executor as executor
        from repro.core.simulator import Simulator
        from repro.latency.metric_space import MetricSpaceLatencyModel
        from repro.protocols.registry import make_protocol

        built = []

        class RecordingSimulator(Simulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.latency_model)

        monkeypatch.setattr(executor, "Simulator", RecordingSimulator)
        config = CONFIG.with_overrides(latency_model="metric")
        task = make_spec(config=config, protocols=("random",), repeats=1).expand()[0]
        assert run_task(task).ok
        (swept,) = built
        assert isinstance(swept, MetricSpaceLatencyModel)
        standalone = Simulator(
            config,
            make_protocol("random"),
            rng=np.random.default_rng(task.environment_seed()),
        ).latency_model
        assert swept.as_matrix().tobytes() == standalone.as_matrix().tobytes()

    def test_latency_memory_scenario_param_fails_the_task(self):
        """The retired parameter no longer overrides ``latency_model``."""
        spec = make_spec(
            config=CONFIG.with_overrides(latency_model="metric"),
            protocols=("random",),
            repeats=1,
            scenario_params={"latency_memory": "sparse"},
        )
        (record,) = execute_sweep(spec, executor=SerialExecutor())
        assert not record.ok
        assert "latency_memory" in record.error
        assert "geographic-sparse" in record.error


class TestExecutors:
    def test_parallel_identical_to_serial(self):
        spec = make_spec()
        serial = execute_sweep(spec, executor=SerialExecutor())
        parallel = execute_sweep(spec, executor=ParallelExecutor(workers=2))
        assert len(serial) == len(parallel)
        for left, right in zip(serial, parallel):
            assert left.key == right.key
            assert left.reach90 == right.reach90  # exact, not approximate
            assert left.reach50 == right.reach50

    def test_parallel_aggregates_byte_identical(self):
        spec = make_spec()
        serial = records_to_result(execute_sweep(spec, executor=SerialExecutor()))
        parallel = records_to_result(
            execute_sweep(spec, executor=ParallelExecutor(workers=2))
        )
        for name in serial.curves:
            assert serial.curves[name].sorted_delays_ms.tobytes() == (
                parallel.curves[name].sorted_delays_ms.tobytes()
            )
            assert serial.curves_50[name].sorted_delays_ms.tobytes() == (
                parallel.curves_50[name].sorted_delays_ms.tobytes()
            )

    def test_repeats_are_order_independent(self):
        one = execute_sweep(make_spec(repeats=1))
        two = execute_sweep(make_spec(repeats=3))
        assert one[0].reach90 == two[0].reach90
        assert one[1].reach50 == two[1].reach50

    def test_progress_callback_invoked(self):
        seen = []
        execute_sweep(
            make_spec(repeats=1),
            progress=lambda done, total, record: seen.append((done, total)),
        )
        assert seen == [(1, 2), (2, 2)]

    def test_progress_counts_cached_records_in_total(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        execute_sweep(make_spec(protocols=("random",)), store=store)
        seen = []
        execute_sweep(
            make_spec(),  # superset: 2 cached + 2 live tasks
            store=store,
            progress=lambda done, total, record: seen.append(
                (done, total, record.cached)
            ),
        )
        assert seen == [(1, 4, True), (2, 4, True), (3, 4, False), (4, 4, False)]

    def test_failure_isolation(self):
        spec = make_spec(protocols=("random", "no-such-protocol"))
        records = execute_sweep(spec)
        assert len(records) == 4
        failed = failed_records(records)
        assert len(failed) == 2
        assert all(r.task.protocol == "no-such-protocol" for r in failed)
        assert all(r.ok for r in records if r.task.protocol == "random")
        with pytest.raises(RuntimeError, match="no-such-protocol"):
            records_to_result(records)
        lenient = records_to_result(records, strict=False)
        assert lenient.protocol_names() == ["random"]

    def test_per_task_timing_recorded(self):
        records = execute_sweep(make_spec(repeats=1))
        assert all(record.duration_s > 0 for record in records)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelExecutor(workers=0)


class TestStoreAndResume:
    def test_resume_runs_only_missing_tasks(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        partial = make_spec(protocols=("random",))
        execute_sweep(partial, store=store)

        executed = []

        def counting_run(task) -> TaskRecord:
            executed.append(task.protocol)
            return run_task(task)

        full = make_spec()  # same name/config, superset of protocols
        records = execute_sweep(full, store=store, run=counting_run)
        assert executed == ["perigee-subset", "perigee-subset"]
        assert sum(record.cached for record in records) == 2
        assert len(records) == 4

    def test_interrupted_sweep_persists_finished_tasks(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec()
        calls = []

        def interrupting_run(task) -> TaskRecord:
            if len(calls) == 2:
                raise KeyboardInterrupt
            calls.append(task.content_hash())
            return run_task(task)

        with pytest.raises(KeyboardInterrupt):
            execute_sweep(spec, store=store, run=interrupting_run)
        assert len(store.load()) == 2

        executed = []

        def counting_run(task) -> TaskRecord:
            executed.append(task.content_hash())
            return run_task(task)

        records = execute_sweep(spec, store=store, run=counting_run)
        assert len(executed) == 2
        assert set(executed).isdisjoint(calls)
        assert all(record.ok for record in records)

    def test_store_roundtrip_is_bit_exact(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec(repeats=1)
        fresh = execute_sweep(spec, store=store)
        loaded = execute_sweep(spec, store=store)
        assert all(record.cached for record in loaded)
        fresh_result = records_to_result(fresh)
        loaded_result = records_to_result(loaded)
        for name in fresh_result.curves:
            assert fresh_result.curves[name].sorted_delays_ms.tobytes() == (
                loaded_result.curves[name].sorted_delays_ms.tobytes()
            )

    def test_failed_tasks_are_retried_on_resume(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec(protocols=("random", "no-such-protocol"), repeats=1)
        first = execute_sweep(spec, store=store)
        assert len(failed_records(first)) == 1
        second = execute_sweep(spec, store=store)
        assert sum(record.cached for record in second) == 1  # only the ok task
        assert len(failed_records(second)) == 1  # still fails, but was re-run

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        execute_sweep(make_spec(repeats=1), store=store)
        with store.results_path.open("a", encoding="utf-8") as handle:
            handle.write('{"key": "abc", "task"')  # simulated mid-write kill
        assert len(store.load()) == 2

    def test_spec_persisted_and_loadable(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec()
        execute_sweep(spec, store=store)
        specs = store.load_specs()
        assert specs == {"unit": spec}

    def test_histograms_survive_the_store(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec(protocols=("random",), repeats=1, collect_histograms=True)
        execute_sweep(spec, store=store)
        loaded = execute_sweep(spec, store=store)
        result = records_to_result(loaded)
        assert "random" in result.histograms
        histogram = result.histograms["random"]
        assert histogram.counts.sum() > 0
        assert np.isfinite(histogram.mean_ms)


class TestScenarioNumerics:
    def test_miner_speedup_scenario_matches_legacy_builders(self):
        """The registered scenario builds the hand-composed Figure 4(b) model."""
        from repro.datasets.bitnodes import generate_population
        from repro.latency.geo import GeographicLatencyModel
        from repro.latency.relay import apply_miner_speedup

        config = default_config(
            num_nodes=30, seed=5, hash_power_distribution="concentrated"
        )
        spec = SweepSpec(
            name="figure4b",
            config=config,
            protocols=("random",),
            scenario="miner-speedup",
            scenario_params={"speedup": 0.1},
        )
        task = spec.expand()[0]
        scenario = get_scenario(task.scenario)
        rng = np.random.default_rng(task.environment_seed())
        population = scenario.build_population(config, task.scenario_params, rng)
        via_scenario = scenario.build_latency(
            config, population, task.scenario_params, rng
        )

        rng = np.random.default_rng(task.environment_seed())
        population = generate_population(config, rng)
        direct = apply_miner_speedup(
            GeographicLatencyModel(population.nodes, rng),
            population.high_power_miners,
            speedup=0.1,
        )
        assert via_scenario.as_matrix().tobytes() == direct.as_matrix().tobytes()
