"""Checkpoint/restore parity and streaming aggregation.

The checkpoint contract is absolute: resuming a simulation from a snapshot
taken after round ``k`` must produce *bit-for-bit* the same topology and
delay curves as the uninterrupted run — the RNG state, adjacency, protocol
score state, and counters all round-trip through JSON exactly.  This suite
pins that promise property-based across random configurations and all three
Perigee protocols, then covers the layers built on top: ``run_task``
resume, the on-disk snapshot format (atomic writes, retention, corrupt
fallback), the cluster queue's checkpoint-aware attempt accounting, store
compaction, the streaming aggregator's byte-identity with the historical
reduction, and the fleet payload's partial curves.
"""

from __future__ import annotations

import base64
import json
import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.incremental import MixedDeploymentProtocol
from repro.config import default_config
from repro.core.network import P2PNetwork
from repro.core.simulator import (
    CHECKPOINT_SCHEMA,
    Simulator,
    rng_state_from_json,
    rng_state_to_json,
)
from repro.metrics.evaluator import DelayEvaluator
from repro.protocols.perigee.ucb import PerigeeUCBProtocol
from repro.protocols.registry import make_protocol
from repro.runtime.aggregate import StreamingAggregator, records_to_result
from repro.runtime.checkpoint import (
    PACKED_FLOATS_KEY,
    checkpoint_path,
    clear_task_checkpoints,
    latest_checkpoint,
    list_checkpoints,
    newest_checkpoint_round,
    prune_checkpoints,
    task_checkpoint_dir,
    write_checkpoint,
)
from repro.runtime.cluster.queue import WorkQueue
from repro.runtime.cluster.worker import Worker
from repro.runtime.executor import SerialExecutor, execute_sweep, run_task
from repro.runtime.scenarios import get_scenario
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec, Task, TaskRecord, canonical_json
from repro.telemetry.flight import FlightRecorder, load_run, use_flight_recorder
from repro.telemetry.recorder import MetricsRecorder, use_recorder

common_settings = settings(
    max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ADAPTIVE_PROTOCOLS = ("perigee-vanilla", "perigee-subset", "perigee-ucb")


def build_simulator(config, protocol_name: str) -> Simulator:
    return Simulator(
        config,
        make_protocol(protocol_name),
        rng=np.random.default_rng(config.seed),
    )


def json_round_trip(state: dict) -> dict:
    return json.loads(json.dumps(state, sort_keys=True))


def make_spec(**overrides) -> SweepSpec:
    fields = dict(
        name="checkpoint-unit",
        config=default_config(num_nodes=30, rounds=3, blocks_per_round=8, seed=5),
        protocols=("random", "perigee-subset"),
        repeats=2,
    )
    fields.update(overrides)
    return SweepSpec(**fields)


def run_rounds_like_run_task(task: Task, rounds: int) -> Simulator:
    """Build the exact simulator ``run_task`` would and run ``rounds`` rounds."""
    config = task.config
    scenario = get_scenario(task.scenario)
    env_rng = np.random.default_rng(task.environment_seed())
    population = scenario.build_population(config, task.scenario_params, env_rng)
    latency = scenario.build_latency(
        config, population, task.scenario_params, env_rng
    )
    simulator = Simulator(
        config=config,
        protocol=make_protocol(task.protocol),
        population=population,
        latency=latency,
        rng=np.random.default_rng(task.protocol_seed()),
        delay_evaluator=DelayEvaluator.from_params(task.evaluation_params),
    )
    simulator.run(rounds)
    return simulator


class TestSimulatorCheckpointParity:
    """Resume-from-snapshot is bit-identical to the uninterrupted run."""

    @common_settings
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(10, 40),
        rounds=st.integers(2, 6),
        protocol=st.sampled_from(ADAPTIVE_PROTOCOLS),
        data=st.data(),
    )
    def test_resume_bit_identical(self, seed, n, rounds, protocol, data):
        k = data.draw(st.integers(1, rounds - 1), label="checkpoint_round")
        config = default_config(
            num_nodes=n, rounds=rounds, blocks_per_round=10, seed=seed
        )
        baseline = build_simulator(config, protocol)
        baseline.run(rounds)

        interrupted = build_simulator(config, protocol)
        interrupted.run(k)
        state = json_round_trip(interrupted.state_dict())

        resumed = build_simulator(config, protocol)
        resumed.load_state_dict(state)
        assert resumed.rounds_completed == k
        resumed.run(rounds)

        assert sorted(resumed.network.edge_list()) == sorted(
            baseline.network.edge_list()
        )
        assert resumed.evaluate().tobytes() == baseline.evaluate().tobytes()

    @pytest.mark.parametrize("protocol", ADAPTIVE_PROTOCOLS)
    def test_run_resumes_at_the_restored_round(self, tmp_path, protocol):
        total, k = 5, 2
        config = default_config(
            num_nodes=20, rounds=total, blocks_per_round=6, seed=8
        )
        baseline = build_simulator(config, protocol)
        baseline.run(total)
        interrupted = build_simulator(config, protocol)
        interrupted.run(k)
        state = json_round_trip(interrupted.state_dict())

        resumed = build_simulator(config, protocol)
        resumed.load_state_dict(state)
        flight = FlightRecorder(tmp_path / "run", delay_every=0)
        with use_flight_recorder(flight):
            resumed.run(total)
        flight.close()

        assert flight.rounds_recorded == total - k
        rows = load_run(tmp_path / "run")["rounds"]
        assert [row["round"] for row in rows] == list(range(k, total))
        assert json.dumps(resumed.state_dict(), sort_keys=True) == json.dumps(
            baseline.state_dict(), sort_keys=True
        )

    @common_settings
    @given(
        seed=st.integers(0, 2**31 - 1),
        protocol=st.sampled_from(ADAPTIVE_PROTOCOLS),
    )
    def test_state_dict_round_trips_rng_exactly(self, seed, protocol):
        config = default_config(
            num_nodes=12, rounds=3, blocks_per_round=6, seed=seed
        )
        simulator = build_simulator(config, protocol)
        simulator.run_round()
        state = json_round_trip(simulator.state_dict())
        other = build_simulator(config, protocol)
        other.load_state_dict(state)
        # The restored generator continues the exact stream.
        assert other._rng.integers(0, 2**63).tolist() == (
            simulator._rng.integers(0, 2**63).tolist()
        )

    def test_snapshot_schema_and_validation(self):
        config = default_config(num_nodes=10, rounds=2, blocks_per_round=4)
        simulator = build_simulator(config, "perigee-subset")
        simulator.run_round()
        state = simulator.state_dict()
        assert state["schema"] == CHECKPOINT_SCHEMA
        assert state["protocol"] == "perigee-subset"
        assert state["rounds_completed"] == 1

        with pytest.raises(ValueError, match="schema"):
            build_simulator(config, "perigee-subset").load_state_dict(
                {**state, "schema": 999}
            )
        with pytest.raises(ValueError, match="protocol"):
            build_simulator(config, "perigee-ucb").load_state_dict(state)
        other = default_config(num_nodes=11, rounds=2, blocks_per_round=4)
        with pytest.raises(ValueError, match="num_nodes|nodes"):
            build_simulator(other, "perigee-subset").load_state_dict(state)

    def test_every_snapshot_fault_is_a_chained_value_error(self):
        config = default_config(num_nodes=10, rounds=2, blocks_per_round=4)
        simulator = build_simulator(config, "perigee-ucb")
        simulator.run_round()
        before = json_round_trip(simulator.state_dict())
        no_protocol = {k: v for k, v in before.items() if k != "protocol"}
        for snapshot, cause in [
            (["not", "a", "snapshot"], AttributeError),
            (no_protocol, KeyError),
            ({**before, "protocol_state": ["not", "a", "dict"]}, AttributeError),
        ]:
            with pytest.raises(ValueError) as excinfo:
                simulator.load_state_dict(snapshot)
            assert isinstance(excinfo.value.__cause__, cause)
            assert json_round_trip(simulator.state_dict()) == before

    def test_rng_state_json_helpers_round_trip(self):
        rng = np.random.default_rng(123)
        rng.integers(0, 10, size=5)
        state = rng.bit_generator.state
        restored = rng_state_from_json(json_round_trip(rng_state_to_json(state)))
        fresh = np.random.default_rng(0)
        fresh.bit_generator.state = restored
        assert fresh.integers(0, 2**63) == rng.integers(0, 2**63)


class TestNetworkStateDict:
    @common_settings
    @given(seed=st.integers(0, 2**31 - 1), n=st.integers(5, 40))
    def test_round_trip_preserves_topology(self, seed, n):
        rng = np.random.default_rng(seed)
        network = P2PNetwork(n)
        for u in range(n):
            for v in rng.choice(n, size=min(3, n - 1), replace=False):
                if u != int(v):
                    network.connect(u, int(v))
        state = json_round_trip(network.state_dict())
        restored = P2PNetwork(n)
        restored.load_state_dict(state)
        assert sorted(restored.edge_list()) == sorted(network.edge_list())
        restored.validate_invariants()

    def test_size_mismatch_raises(self):
        network = P2PNetwork(5)
        network.connect(0, 1)
        state = network.state_dict()
        with pytest.raises(ValueError):
            P2PNetwork(6).load_state_dict(state)

    @pytest.mark.parametrize(
        "row, budgets",
        [
            ([-1], {}),  # negative id
            ([5], {}),  # id past the last node
            ([0], {}),  # self-loop
            ([1, 2, 3], {"out_degree": 2}),  # row over the out-degree
            ([1], {"max_incoming": 0}),  # incoming count over the budget
        ],
    )
    def test_invalid_snapshot_rejected_before_restore(self, row, budgets):
        network = P2PNetwork(5, out_degree=3, max_incoming=3)
        network.connect(1, 2)
        before = (network.state_dict(), network.topology_version)
        state = {**network.state_dict(), **budgets}
        state["outgoing"] = [row] + state["outgoing"][1:]
        with pytest.raises(ValueError):
            network.load_state_dict(state)
        assert (network.state_dict(), network.topology_version) == before
        network.validate_invariants()


class TestProtocolStateDict:
    def test_stateless_protocol_rejects_foreign_state(self):
        protocol = make_protocol("perigee-subset")
        assert protocol.state_dict() == {}
        protocol.load_state_dict({})  # no-op
        with pytest.raises(ValueError, match="no restorable state"):
            protocol.load_state_dict({"history": {}})

    def test_ucb_history_round_trips(self):
        config = default_config(num_nodes=15, rounds=3, blocks_per_round=6)
        simulator = build_simulator(config, "perigee-ucb")
        simulator.run(2)
        source = simulator._protocol
        state = json_round_trip(source.state_dict())
        assert state  # two rounds of observations left history behind
        target = make_protocol("perigee-ucb")
        target.load_state_dict(state)
        assert {
            node: {peer: list(samples) for peer, samples in buckets.items()}
            for node, buckets in source._history.items()
            if buckets
        } == {
            node: {peer: list(samples) for peer, samples in buckets.items()}
            for node, buckets in target._history.items()
            if buckets
        }

    def test_mixed_deployment_resumes_inner_ucb_history(self):
        config = default_config(num_nodes=40, rounds=6, blocks_per_round=10)

        def mixed() -> Simulator:
            protocol = MixedDeploymentProtocol(
                set(range(0, 40, 2)), inner=PerigeeUCBProtocol()
            )
            return Simulator(
                config, protocol, rng=np.random.default_rng(config.seed)
            )

        baseline = mixed()
        baseline.run(6)
        interrupted = mixed()
        interrupted.run(3)
        state = json_round_trip(interrupted.state_dict())
        assert state["protocol_state"]["history"]
        resumed = mixed()
        resumed.load_state_dict(state)
        resumed.run(6)
        assert resumed.network.edge_list() == baseline.network.edge_list()
        assert resumed.state_dict() == baseline.state_dict()


class TestRunTaskResume:
    def make_task(self, protocol="perigee-subset", rounds=4) -> Task:
        spec = make_spec(
            config=default_config(
                num_nodes=25, rounds=rounds, blocks_per_round=8, seed=9
            ),
            protocols=(protocol,),
            repeats=1,
        )
        return spec.expand()[0]

    @pytest.mark.parametrize("protocol", ADAPTIVE_PROTOCOLS)
    def test_resume_record_is_bit_identical(self, tmp_path, protocol):
        task = self.make_task(protocol=protocol)
        clean = run_task(task)
        # Manufacture the checkpoint a killed worker would have left: the
        # exact mid-run state after two rounds, under the task's key.
        simulator = run_rounds_like_run_task(task, rounds=2)
        directory = task_checkpoint_dir(tmp_path, task.content_hash())
        path = write_checkpoint(
            directory, json_round_trip(simulator.state_dict())
        )
        if protocol == "perigee-ucb":
            # UCB's histories are stored packed, not as decimal lists.
            assert PACKED_FLOATS_KEY in path.read_text(encoding="utf-8")

        recorder = MetricsRecorder()
        with use_recorder(recorder):
            resumed = run_task(
                task, checkpoint_store=tmp_path, checkpoint_every=2
            )
        assert resumed.ok
        assert resumed.reach90 == clean.reach90
        assert resumed.reach50 == clean.reach50
        assert recorder.counter("task.resumed", protocol=task.protocol) == 1

    def test_checkpoints_written_and_cleared_on_success(self, tmp_path):
        task = self.make_task(rounds=4)
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            record = run_task(task, checkpoint_store=tmp_path, checkpoint_every=1)
        assert record.ok
        # Rounds 1..3 snapshot; no snapshot after the final round.
        assert recorder.counter(
            "task.checkpoints_written", protocol=task.protocol
        ) == 3
        assert not task_checkpoint_dir(tmp_path, task.content_hash()).exists()

    def test_resume_matches_task_carried_interval(self, tmp_path):
        spec = make_spec(
            protocols=("perigee-ucb",), repeats=1, checkpoint_every=2
        )
        task = spec.expand()[0]
        assert task.checkpoint_every == 2
        clean = run_task(task)
        simulator = run_rounds_like_run_task(task, rounds=2)
        write_checkpoint(
            task_checkpoint_dir(tmp_path, task.content_hash()),
            simulator.state_dict(),
        )
        resumed = run_task(task, checkpoint_store=tmp_path)
        assert resumed.reach90 == clean.reach90

    def test_corrupt_checkpoint_falls_back_to_fresh_run(self, tmp_path):
        task = self.make_task()
        clean = run_task(task)
        directory = task_checkpoint_dir(tmp_path, task.content_hash())
        directory.mkdir(parents=True)
        # Parseable JSON, but not a valid snapshot: restore must fail
        # gracefully and the task restart from round zero.
        checkpoint_path(directory, 2).write_text(
            json.dumps({"schema": CHECKPOINT_SCHEMA, "rounds_completed": 2}),
            encoding="utf-8",
        )
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            record = run_task(
                task, checkpoint_store=tmp_path, checkpoint_every=2
            )
        assert record.ok
        assert record.reach90 == clean.reach90
        assert recorder.counter(
            "task.checkpoint_invalid", protocol=task.protocol
        ) == 1
        assert recorder.counter("task.resumed", protocol=task.protocol) == 0

    @pytest.mark.parametrize(
        "protocol, corrupt",
        [
            ("perigee-subset", lambda state: state.pop("rng")),
            (
                "perigee-ucb",
                lambda state: state["protocol_state"]["history"].update(
                    {"not-a-node": {}}
                ),
            ),
        ],
        ids=["missing-rng", "non-integer-history-key"],
    )
    def test_partly_loadable_checkpoint_falls_back_to_identical_record(
        self, tmp_path, protocol, corrupt
    ):
        # The network part of these snapshots loads; a later part fails.
        # The fallback must then run from round zero exactly as a run that
        # never saw a checkpoint, not from the round-2 topology.
        task = make_spec(
            config=default_config(
                num_nodes=40, rounds=4, blocks_per_round=8, seed=9
            ),
            protocols=(protocol,),
            repeats=1,
        ).expand()[0]
        state = json_round_trip(
            run_rounds_like_run_task(task, rounds=2).state_dict()
        )
        corrupt(state)
        write_checkpoint(task_checkpoint_dir(tmp_path, task.content_hash()), state)
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            record = run_task(task, checkpoint_store=tmp_path, checkpoint_every=2)
        assert recorder.counter(
            "task.checkpoint_invalid", protocol=task.protocol
        ) == 1

        def record_bytes(record: TaskRecord) -> str:
            return canonical_json({**record.to_dict(), "duration_s": None})

        assert record_bytes(record) == record_bytes(run_task(task))

    def test_non_dict_protocol_state_falls_back_to_round_zero(self, tmp_path):
        # UCB's load_state_dict meets a list where it reads a dict and raises
        # AttributeError; the restore reports every snapshot fault as
        # ValueError, so the task restarts from round zero instead of
        # being recorded failed.
        task = self.make_task(protocol="perigee-ucb")
        clean = run_task(task)
        state = json_round_trip(
            run_rounds_like_run_task(task, rounds=2).state_dict()
        )
        state["protocol_state"] = ["not", "a", "dict"]
        write_checkpoint(task_checkpoint_dir(tmp_path, task.content_hash()), state)
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            record = run_task(task, checkpoint_store=tmp_path, checkpoint_every=2)
        assert record.ok
        assert record.reach90 == clean.reach90
        assert record.reach50 == clean.reach50
        assert recorder.counter(
            "task.checkpoint_invalid", protocol=task.protocol
        ) == 1

    def test_unloadable_newest_snapshot_resumes_from_older_one(self, tmp_path):
        # Retention keeps two snapshots for exactly this case: the newest
        # parses but does not load, so the task resumes from the one before
        # it rather than from round zero.
        task = self.make_task(protocol="perigee-ucb", rounds=6)
        directory = task_checkpoint_dir(tmp_path, task.content_hash())
        simulator = run_rounds_like_run_task(task, rounds=2)
        write_checkpoint(directory, json_round_trip(simulator.state_dict()))
        simulator.run(4)
        newest = json_round_trip(simulator.state_dict())
        newest["protocol_state"] = ["not", "a", "dict"]
        write_checkpoint(directory, newest)
        recorder = MetricsRecorder()
        with use_recorder(recorder):
            record = run_task(task, checkpoint_store=tmp_path, checkpoint_every=2)
        assert recorder.counter(
            "task.checkpoint_invalid", protocol=task.protocol
        ) == 1
        assert recorder.counter("task.resumed", protocol=task.protocol) == 1
        # Resumed after round 2: rounds 3 to 6 ran, and only the round-4
        # snapshot was written (a restart would also write round 2's).
        assert recorder.counter(
            "task.checkpoints_written", protocol=task.protocol
        ) == 1

        def record_bytes(record: TaskRecord) -> str:
            return canonical_json({**record.to_dict(), "duration_s": None})

        assert record_bytes(record) == record_bytes(run_task(task))

    def test_non_adaptive_protocol_never_checkpoints(self, tmp_path):
        task = self.make_task(protocol="random")
        record = run_task(task, checkpoint_store=tmp_path, checkpoint_every=1)
        assert record.ok
        assert not (tmp_path / "checkpoints").exists()

    def test_content_hash_ignores_checkpoint_interval(self):
        plain = make_spec().expand()
        checkpointed = make_spec(checkpoint_every=5).expand()
        assert [task.content_hash() for task in plain] == [
            task.content_hash() for task in checkpointed
        ]

    def test_spec_rejects_negative_interval(self, tmp_path):
        with pytest.raises(ValueError):
            make_spec(checkpoint_every=-1)
        with pytest.raises(ValueError):
            Worker(ResultStore(tmp_path / "runs"), checkpoint_every=-1)


class TestCheckpointFiles:
    def snapshot(self, rounds_completed: int) -> dict:
        return {"rounds_completed": rounds_completed, "payload": "x"}

    def test_retention_keeps_newest(self, tmp_path):
        directory = tmp_path / "task"
        for rounds in (1, 2, 3, 4):
            write_checkpoint(directory, self.snapshot(rounds), retention=2)
        names = sorted(path.name for path in directory.iterdir())
        assert names == ["round-00000003.json", "round-00000004.json"]
        assert newest_checkpoint_round(directory) == 4

    def test_latest_checkpoint_skips_corrupt_newest(self, tmp_path):
        directory = tmp_path / "task"
        write_checkpoint(directory, self.snapshot(1))
        checkpoint_path(directory, 2).write_text("{truncated", encoding="utf-8")
        state = latest_checkpoint(directory)
        assert state is not None
        assert state["rounds_completed"] == 1

    def test_newest_round_reads_filenames_only(self, tmp_path):
        directory = tmp_path / "task"
        directory.mkdir()
        checkpoint_path(directory, 7).write_text("not json", encoding="utf-8")
        (directory / "unrelated.txt").write_text("x", encoding="utf-8")
        assert newest_checkpoint_round(directory) == 7
        assert newest_checkpoint_round(tmp_path / "missing") is None

    def test_list_and_prune(self, tmp_path):
        write_checkpoint(task_checkpoint_dir(tmp_path, "aaa"), self.snapshot(3))
        write_checkpoint(task_checkpoint_dir(tmp_path, "bbb"), self.snapshot(1))
        entries = list_checkpoints(tmp_path)
        assert {entry["key"] for entry in entries} == {"aaa", "bbb"}
        by_key = {entry["key"]: entry for entry in entries}
        assert by_key["aaa"]["round"] == 3
        assert by_key["aaa"]["snapshots"] == 1
        assert by_key["aaa"]["bytes"] > 0
        assert prune_checkpoints(tmp_path, keys={"aaa"}) == 1
        assert {entry["key"] for entry in list_checkpoints(tmp_path)} == {"bbb"}
        assert prune_checkpoints(tmp_path) == 1
        assert list_checkpoints(tmp_path) == []
        assert not (tmp_path / "checkpoints").exists()

    def test_clear_task_checkpoints(self, tmp_path):
        write_checkpoint(task_checkpoint_dir(tmp_path, "ccc"), self.snapshot(2))
        assert clear_task_checkpoints(tmp_path, "ccc")
        assert not clear_task_checkpoints(tmp_path, "ccc")


UCB_LIST_FIXTURE = (
    Path(__file__).parent / "fixtures" / "ucb_checkpoint_list_history.json"
)

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**63), max_value=2**63),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)
float_lists = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=12)
mixed_lists = st.lists(
    st.one_of(st.integers(min_value=-50, max_value=50), st.floats()), max_size=6
)
snapshot_keys = st.text(max_size=6).filter(lambda key: key != PACKED_FLOATS_KEY)
json_values = st.recursive(
    st.one_of(json_scalars, float_lists, mixed_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(snapshot_keys, children, max_size=4),
    ),
    max_leaves=24,
)


def packed(values: list[float]) -> dict:
    raw = struct.pack(f"<{len(values)}d", *values)
    return {PACKED_FLOATS_KEY: base64.b64encode(raw).decode("ascii")}


class TestPackedFloatCodec:
    """All-float lists are written as float64 bytes and read back exactly."""

    @settings(max_examples=60, deadline=None)
    @given(payload=json_values)
    def test_round_trip_is_exact(self, payload):
        state = {"rounds_completed": 1, "payload": payload}
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp) / "task"
            write_checkpoint(directory, state)
            restored = latest_checkpoint(directory)
        # JSON text tells -0.0 from 0.0, 2 from 2.0 and keeps nan/inf, so
        # byte-equal dumps mean every value and type came back.
        assert json.dumps(restored, sort_keys=True) == json.dumps(
            state, sort_keys=True
        )

    def test_float_lists_are_packed_and_others_are_not(self, tmp_path):
        special = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1.5]
        state = {
            "rounds_completed": 1,
            "floats": special,
            "mixed": [1.5, 2],
            "ints": [1, 2],
            "empty": [],
            "nested": [[0.25], {"deep": [3.0, -0.0]}],
        }
        path = write_checkpoint(tmp_path, state)
        on_disk = json.loads(path.read_text(encoding="utf-8"))
        assert on_disk["floats"] == packed(special)
        assert on_disk["mixed"] == [1.5, 2]
        assert on_disk["ints"] == [1, 2]
        assert on_disk["empty"] == []
        assert on_disk["nested"] == [packed([0.25]), {"deep": packed([3.0, -0.0])}]
        restored = latest_checkpoint(tmp_path)
        assert struct.pack("<7d", *restored["floats"]) == struct.pack(
            "<7d", *special
        )
        assert [type(value) for value in restored["mixed"]] == [float, int]

    def test_reserved_key_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            write_checkpoint(
                tmp_path, {"rounds_completed": 1, PACKED_FLOATS_KEY: "x"}
            )

    @pytest.mark.parametrize(
        "corrupt",
        [
            {PACKED_FLOATS_KEY: "not base64!"},
            {PACKED_FLOATS_KEY: base64.b64encode(bytes(12)).decode("ascii")},
            {PACKED_FLOATS_KEY: 17},
        ],
        ids=["bad-base64", "partial-float", "not-a-string"],
    )
    def test_corrupt_packed_newest_falls_back_to_older(self, tmp_path, corrupt):
        write_checkpoint(tmp_path, {"rounds_completed": 1, "samples": [0.5]})
        checkpoint_path(tmp_path, 2).write_text(
            json.dumps({"rounds_completed": 2, "samples": corrupt}),
            encoding="utf-8",
        )
        state = latest_checkpoint(tmp_path)
        assert state == {"rounds_completed": 1, "samples": [0.5]}

    def test_list_history_snapshot_loads_unchanged(self, tmp_path):
        text = UCB_LIST_FIXTURE.read_text(encoding="utf-8")
        checkpoint_path(tmp_path, 2).write_text(text, encoding="utf-8")
        assert json.dumps(latest_checkpoint(tmp_path), sort_keys=True) == text

    def test_ucb_snapshot_reads_back_byte_identical(self, tmp_path):
        text = UCB_LIST_FIXTURE.read_text(encoding="utf-8")
        path = write_checkpoint(tmp_path, json.loads(text))
        assert path.stat().st_size < len(text)
        assert json.dumps(latest_checkpoint(tmp_path), sort_keys=True) == text


class TestQueueCheckpointForgiveness:
    def age_lease(self, claim, seconds=3600.0):
        import os
        import time

        stamp = time.time() - seconds
        os.utime(claim.lease_path, (stamp, stamp))

    def test_checkpointed_progress_does_not_burn_attempts(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        queue = WorkQueue(store, lease_ttl=5.0, max_attempts=2)
        queue.submit(make_spec(protocols=("perigee-subset",), repeats=1))
        first = queue.claim("w-dead")
        assert first is not None and first.attempt == 1
        self.age_lease(first)
        # The dead worker left a checkpoint: reclamation is forgiven.
        write_checkpoint(
            task_checkpoint_dir(store.directory, first.key),
            {"rounds_completed": 1},
        )
        second = queue.claim("w-live")
        assert second is not None
        assert second.attempt == 1  # no attempt consumed
        self.age_lease(second)
        # Died again, same checkpoint round: no new progress, attempt burns.
        third = queue.claim("w-live2")
        assert third is not None
        assert third.attempt == 2
        self.age_lease(third)
        # A *newer* snapshot forgives again even at the attempt ceiling.
        write_checkpoint(
            task_checkpoint_dir(store.directory, first.key),
            {"rounds_completed": 3},
        )
        fourth = queue.claim("w-live3")
        assert fourth is not None
        assert fourth.attempt == 2
        self.age_lease(fourth)
        # No progress since round 3: attempts exhaust and the task fails.
        assert queue.claim("w-final") is None
        (record,) = store.load().values()
        assert record.status == "failed"
        assert "max_attempts" in record.error

    def test_exhaustion_without_checkpoints_is_unchanged(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        queue = WorkQueue(store, lease_ttl=5.0, max_attempts=2)
        queue.submit(make_spec(protocols=("random",), repeats=1))
        for _ in range(queue.max_attempts):
            claim = queue.claim("w-crash")
            assert claim is not None
            self.age_lease(claim)
        assert queue.claim("w-final") is None
        (record,) = store.load().values()
        assert record.status == "failed"

    def test_legacy_plain_int_attempts_file_still_counts(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        queue = WorkQueue(store, lease_ttl=5.0, max_attempts=3)
        queue.submit(make_spec(protocols=("random",), repeats=1))
        claim = queue.claim("w1")
        queue.release(claim)
        queue.leases_dir.mkdir(parents=True, exist_ok=True)
        queue._attempts_path(claim.key).write_text("2", encoding="utf-8")
        assert queue._read_attempts(claim.key) == (2, -1)
        again = queue.claim("w2")
        assert again is not None
        assert again.attempt == 3


class TestStreamingAggregator:
    @pytest.fixture(scope="class")
    def records(self):
        spec = make_spec(collect_histograms=True)
        return execute_sweep(spec, executor=SerialExecutor())

    def test_matches_records_to_result_byte_identical(self, records):
        aggregator = StreamingAggregator()
        aggregator.extend(records)
        streamed = aggregator.result(name="x")
        direct = records_to_result(records, name="x")
        assert set(streamed.curves) == set(direct.curves)
        for protocol in direct.curves:
            assert streamed.curves[protocol].sorted_delays_ms.tobytes() == (
                direct.curves[protocol].sorted_delays_ms.tobytes()
            )
            assert streamed.curves_50[protocol].sorted_delays_ms.tobytes() == (
                direct.curves_50[protocol].sorted_delays_ms.tobytes()
            )
        assert set(streamed.histograms) == set(direct.histograms)

    def test_partial_summary_mid_stream(self, records):
        aggregator = StreamingAggregator()
        aggregator.add(records[0])
        summary = aggregator.partial_summary()
        protocol = records[0].task.protocol
        assert set(summary) == {protocol}
        entry = summary[protocol]
        assert entry["repeats"] == 1
        assert entry["points"] == records[0].task.config.num_nodes
        assert entry["p50_ms"] <= entry["p90_ms"]
        aggregator.extend(records[1:])
        assert aggregator.records_seen == len(records)
        assert all(
            entry["repeats"] == 2
            for entry in aggregator.partial_summary().values()
        )

    def test_failure_contract_matches_historical(self, records):
        failed = TaskRecord(
            key=records[0].key,
            task=records[0].task,
            status="failed",
            error="boom\ntrace",
        )
        mixed = [failed, *records[1:]]
        with pytest.raises(RuntimeError) as streamed_error:
            records_to_result(mixed, name="x")
        aggregator = StreamingAggregator()
        aggregator.extend(mixed)
        with pytest.raises(RuntimeError) as direct_error:
            aggregator.result(name="x")
        assert str(streamed_error.value) == str(direct_error.value)
        # Non-strict drops the failure and averages the survivors.
        relaxed = records_to_result(mixed, name="x", strict=False)
        assert set(relaxed.curves)
        with pytest.raises(ValueError):
            records_to_result([], name="x")
        empty = StreamingAggregator()
        with pytest.raises(RuntimeError, match="no successful"):
            empty.result()

    def test_mismatched_curve_length_raises(self, records):
        small = default_config(num_nodes=10, rounds=2, blocks_per_round=4)
        other = make_spec(
            config=small, protocols=(records[0].task.protocol,), repeats=1
        ).expand()[0]
        shrunk = run_task(other)
        aggregator = StreamingAggregator()
        aggregator.add(records[0])
        with pytest.raises(ValueError, match="mismatch"):
            aggregator.add(shrunk)

    def test_mean_curve_is_streaming_and_bit_identical(self):
        """The running sum divided at read time is the stacked mean, bytewise."""
        (task,) = make_spec(protocols=("random",), repeats=1).expand()
        rng = np.random.default_rng(4)
        reach = [rng.uniform(1, 500, size=64) for _ in range(7)]
        aggregator = StreamingAggregator()
        for values in reach:
            aggregator.add(
                TaskRecord(
                    key=task.content_hash(),
                    task=task,
                    status="ok",
                    reach90=values.tolist(),
                    reach50=values.tolist(),
                )
            )
        stacked = np.vstack([np.sort(values) for values in reach]).mean(axis=0)
        merged = aggregator.mean_curves()["random"]
        assert merged.sorted_delays_ms.tobytes() == stacked.tobytes()


class TestStoreCompaction:
    def test_compact_drops_completed_tasks_checkpoints(self, tmp_path):
        store = ResultStore(tmp_path / "runs")
        spec = make_spec(protocols=("perigee-subset",), repeats=2)
        records = execute_sweep(spec, store=store)
        # Simulate snapshots leaked by a crash between completion and
        # cleanup, plus one genuinely unfinished task.
        for record in records:
            write_checkpoint(
                task_checkpoint_dir(store.directory, record.key),
                {"rounds_completed": 1},
            )
        write_checkpoint(
            task_checkpoint_dir(store.directory, "unfinished-task"),
            {"rounds_completed": 2},
        )
        outcome = store.compact()
        assert outcome.checkpoints_removed == len(records)
        remaining = list_checkpoints(store.directory)
        assert [entry["key"] for entry in remaining] == ["unfinished-task"]


class TestFleetPayload:
    def test_status_payload_reports_curves_and_checkpoints(self, tmp_path):
        from repro.telemetry.fleet import fleet_status, render_status_text

        store = ResultStore(tmp_path / "runs")
        spec = make_spec()
        execute_sweep(spec, store=store)
        payload = fleet_status(store)
        assert payload["checkpoints"] == {
            "tasks": 0,
            "bytes": 0,
            "newest_round": None,
        }
        (sweep,) = [s for s in payload["sweeps"] if s["name"] == spec.name]
        curves = sweep["curves"]
        assert set(curves) == set(spec.protocols)
        for entry in curves.values():
            assert entry["repeats"] == spec.repeats
            assert entry["p50_ms"] <= entry["p90_ms"]
        # A mid-flight store shows partial repeat counts and checkpoints.
        write_checkpoint(
            task_checkpoint_dir(store.directory, "inflight"),
            {"rounds_completed": 4},
        )
        payload = fleet_status(store)
        assert payload["checkpoints"]["tasks"] == 1
        assert payload["checkpoints"]["newest_round"] == 4
        text = render_status_text(payload)
        assert "checkpoints:" in text
        assert "mean curve p50" in text

    def test_prometheus_exports_curve_gauges(self, tmp_path):
        from repro.telemetry.fleet import fleet_status, prometheus_text

        store = ResultStore(tmp_path / "runs")
        execute_sweep(make_spec(), store=store)
        text = prometheus_text(fleet_status(store))
        assert "perigee_sweep_curve_repeats" in text
        assert 'quantile="0.9"' in text
        assert "perigee_checkpoint_tasks" in text
