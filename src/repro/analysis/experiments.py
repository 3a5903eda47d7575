"""The paper's evaluation (Section 5) as named sweep grids and one runner.

Every experiment follows the paper's methodology:

* a node population and link latencies are sampled (the paper repeats each
  experiment three times with independently sampled latencies and plots the
  mean; the ``repeats`` parameter controls this),
* every protocol under comparison runs on the *same* population and latency
  draw within a repeat, so differences are attributable to the protocol,
* adaptive protocols run for the configured number of rounds before the final
  topology is evaluated; static protocols are evaluated directly,
* the reported metric is, for every node, the time for a block mined by that
  node to reach 90% (and 50%) of the network hash power, sorted ascending —
  the y-values of Figures 3 and 4.

Each figure is one builder in :data:`EXPERIMENT_SPECS` returning declarative
:class:`~repro.runtime.tasks.SweepSpec` objects, and
``run_experiment("figure3a", num_nodes=300, ...)`` runs any of them: it
expands each spec into per-(protocol, repeat) tasks with independently
spawned seed streams and routes them through
:mod:`repro.runtime` — serially, or with ``workers > 1`` through a
process-pool :class:`~repro.runtime.executor.ParallelExecutor`.  Parallel
execution is bit-for-bit identical to serial execution.  Passing ``store=``
persists raw task records to a JSONL store so interrupted sweeps resume for
free (``perigee-sim resume --store DIR``).

The default experiment sizes are scaled down from the paper's 1000 nodes so
the benchmark suite completes in minutes on a laptop; pass ``num_nodes=1000``
(and more rounds) to reproduce at full scale.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

from repro.config import SimulationConfig, default_config
from repro.runtime.aggregate import ExperimentResult, records_to_result
from repro.runtime.cluster.executor import ClusterExecutor
from repro.runtime.executor import ProgressCallback, execute_sweep, make_executor
from repro.runtime.store import ResultStore
from repro.runtime.tasks import SweepSpec

#: The protocol line-up of Figure 3.
FIGURE3_PROTOCOLS = (
    "random",
    "geographic",
    "kademlia",
    "perigee-vanilla",
    "perigee-ucb",
    "perigee-subset",
    "ideal",
)

#: The protocol line-up whose edge-latency histograms Figure 5 shows.
FIGURE5_PROTOCOLS = ("random", "geographic", "geometric", "perigee-subset")

#: Validation-delay multipliers swept in Figure 4(a).
FIGURE4A_SCALES = (0.1, 0.5, 1.0, 5.0, 10.0)


@dataclass
class ProcessingDelaySweepResult:
    """Figure 4(a): one :class:`ExperimentResult` per validation-delay scale."""

    scales: tuple[float, ...]
    results: dict[float, ExperimentResult]

    def improvements(
        self, candidate: str = "perigee-subset", baseline: str = "random"
    ) -> dict[float, float]:
        """Per-scale improvement of ``candidate`` over ``baseline``."""
        return {
            scale: self.results[scale].improvement(candidate, baseline)
            for scale in self.scales
        }


@dataclass
class NetworkScalingResult:
    """``scaling`` experiment: one :class:`ExperimentResult` per network size."""

    sizes: tuple[int, ...]
    results: dict[int, ExperimentResult]

    def improvements(
        self, candidate: str = "perigee-subset", baseline: str = "random"
    ) -> dict[int, float]:
        """Per-size improvement of ``candidate`` over ``baseline``."""
        return {
            size: self.results[size].improvement(candidate, baseline)
            for size in self.sizes
        }


def _resolve_store(store):
    if store is None or isinstance(store, ResultStore):
        return store
    return ResultStore(os.fspath(store))


def check_execution_policy(
    store=None,
    *,
    workers: int = 1,
    cluster: bool = False,
    flight: bool = False,
    checkpoint_every: int = 0,
) -> None:
    """Reject an execution policy that cannot run, before any task does.

    Cluster execution (``cluster`` / ``--cluster``), flight recording
    (``flight`` / ``--flight-recorder``) and checkpointing
    (``checkpoint_every`` / ``--checkpoint-every``) each write inside the
    result store (its ``cluster/`` queue, ``runs/`` artifacts and
    ``checkpoints/`` snapshots), so each needs ``store`` / ``--store``.
    Cluster execution drains through that queue, so it excludes
    ``workers > 1``: a cluster scales by extra ``perigee-sim worker``
    processes.  Raises ``ValueError`` naming the CLI flags;
    :func:`_execute_spec` calls it for every sweep, and the ``perigee-sim``
    experiment and ``resume`` commands report it as a usage error.
    """
    if store is None:
        for needed, flag, inside in (
            (cluster, "--cluster", "the queue lives inside it"),
            (flight, "--flight-recorder", "runs/ artifacts live inside it"),
            (checkpoint_every, "--checkpoint-every", "checkpoints/ lives inside it"),
        ):
            if needed:
                raise ValueError(f"{flag} requires --store ({inside})")
    if cluster and workers > 1:
        raise ValueError(
            "--cluster and --workers are mutually exclusive; scale a cluster "
            "run by starting extra 'perigee-sim worker' processes"
        )


def _execute_spec(
    spec: SweepSpec,
    workers: int = 1,
    store=None,
    progress: ProgressCallback | None = None,
    cluster: bool = False,
):
    """Shared execution path: check the policy, resolve store/executor, run.

    ``cluster=True`` routes the sweep through the store-backed distributed
    queue (:class:`~repro.runtime.cluster.executor.ClusterExecutor`): tasks are
    published to ``<store>/cluster/`` where any number of external
    ``perigee-sim worker`` processes help drain them, with this process
    participating as one inline worker.
    """
    resolved_store = _resolve_store(store)
    check_execution_policy(
        resolved_store,
        workers=workers,
        cluster=cluster,
        flight=spec.flight,
        checkpoint_every=spec.checkpoint_every,
    )
    if cluster:
        executor = ClusterExecutor(resolved_store)
    else:
        executor = make_executor(workers)
    return execute_sweep(
        spec, executor=executor, store=resolved_store, progress=progress
    )


def compare_protocols(
    config: SimulationConfig,
    protocol_names: tuple[str, ...] | list[str],
    repeats: int = 1,
) -> ExperimentResult:
    """Run several protocols on shared populations and return their curves.

    Every protocol runs ``config.rounds`` rounds on each of ``repeats``
    independent population/latency draws (the paper uses 3), serially in
    this process.  Stores, worker pools and clusters are for the named
    grids of :func:`run_experiment`.
    """
    spec = SweepSpec(
        name="custom",
        config=config,
        protocols=tuple(protocol_names),
        repeats=repeats,
    )
    return records_to_result(execute_sweep(spec), name="custom")


# --------------------------------------------------------------------------- #
# Sweep-spec builders, one per figure
#
# Building the SweepSpec is separate from running it so the distributed path
# (`perigee-sim submit`) can enqueue a figure's exact task grid — identical
# content hashes — without executing anything in-process.
# --------------------------------------------------------------------------- #
def figure3a_spec(
    num_nodes: int = 300,
    rounds: int = 25,
    repeats: int = 1,
    seed: int = 0,
    blocks_per_round: int = 60,
    protocols: tuple[str, ...] = FIGURE3_PROTOCOLS,
) -> SweepSpec:
    """Figure 3(a): uniform hash power, default delays."""
    config = default_config(
        num_nodes=num_nodes,
        rounds=rounds,
        seed=seed,
        blocks_per_round=blocks_per_round,
        hash_power_distribution="uniform",
    )
    return SweepSpec(
        name="figure3a", config=config, protocols=tuple(protocols), repeats=repeats
    )


def figure3b_spec(
    num_nodes: int = 300,
    rounds: int = 25,
    repeats: int = 1,
    seed: int = 0,
    blocks_per_round: int = 60,
    protocols: tuple[str, ...] = FIGURE3_PROTOCOLS,
) -> SweepSpec:
    """Figure 3(b): hash power drawn from an exponential distribution."""
    config = default_config(
        num_nodes=num_nodes,
        rounds=rounds,
        seed=seed,
        blocks_per_round=blocks_per_round,
        hash_power_distribution="exponential",
    )
    return SweepSpec(
        name="figure3b", config=config, protocols=tuple(protocols), repeats=repeats
    )


def figure4a_specs(
    num_nodes: int = 300,
    rounds: int = 25,
    repeats: int = 1,
    seed: int = 0,
    blocks_per_round: int = 60,
    scales: tuple[float, ...] = FIGURE4A_SCALES,
    protocols: tuple[str, ...] = ("random", "perigee-subset"),
) -> list[SweepSpec]:
    """Figure 4(a): one sweep per validation-delay scale, 0.1x to 10x."""
    scales = tuple(scales)
    if len(set(scales)) != len(scales):
        raise ValueError("scales must be distinct")
    specs = []
    for scale in scales:
        config = default_config(
            num_nodes=num_nodes,
            rounds=rounds,
            seed=seed,
            blocks_per_round=blocks_per_round,
            validation_delay_ms=50.0 * scale,
            hash_power_distribution="uniform",
        )
        specs.append(
            SweepSpec(
                name=f"figure4a-scale-{scale:g}x",
                config=config,
                protocols=tuple(protocols),
                repeats=repeats,
            )
        )
    return specs


def figure4b_spec(
    num_nodes: int = 300,
    rounds: int = 25,
    repeats: int = 1,
    seed: int = 0,
    blocks_per_round: int = 60,
    miner_speedup: float = 0.1,
    protocols: tuple[str, ...] = ("random", "geographic", "perigee-subset", "ideal"),
) -> SweepSpec:
    """Figure 4(b): 10% of nodes hold 90% of hash power, fast links among them."""
    config = default_config(
        num_nodes=num_nodes,
        rounds=rounds,
        seed=seed,
        blocks_per_round=blocks_per_round,
        hash_power_distribution="concentrated",
    )
    return SweepSpec(
        name="figure4b",
        config=config,
        protocols=tuple(protocols),
        repeats=repeats,
        scenario="miner-speedup",
        scenario_params={"speedup": miner_speedup},
    )


def figure4c_spec(
    num_nodes: int = 300,
    rounds: int = 25,
    repeats: int = 1,
    seed: int = 0,
    blocks_per_round: int = 60,
    relay_size: int = 100,
    relay_link_ms: float = 5.0,
    relay_validation_scale: float = 0.1,
    protocols: tuple[str, ...] = ("random", "geographic", "perigee-subset", "ideal"),
) -> SweepSpec:
    """Figure 4(c): a bloXroute-like low-latency relay tree of 100 nodes."""
    config = default_config(
        num_nodes=num_nodes,
        rounds=rounds,
        seed=seed,
        blocks_per_round=blocks_per_round,
        hash_power_distribution="uniform",
    )
    return SweepSpec(
        name="figure4c",
        config=config,
        protocols=tuple(protocols),
        repeats=repeats,
        scenario="relay",
        scenario_params={
            "relay_size": relay_size,
            "relay_link_ms": relay_link_ms,
            "relay_validation_scale": relay_validation_scale,
        },
    )


def figure5_spec(
    num_nodes: int = 300,
    rounds: int = 25,
    repeats: int = 1,
    seed: int = 0,
    blocks_per_round: int = 60,
    protocols: tuple[str, ...] = FIGURE5_PROTOCOLS,
) -> SweepSpec:
    """Figure 5: edge-latency histograms under uniform hash power.

    The histograms come from the first repeat's final topologies, so the
    experiment is single-repeat: ``repeats`` other than 1 is rejected
    rather than silently dropped.
    """
    if repeats != 1:
        raise ValueError(
            f"figure5 is a single-repeat experiment; got repeats={repeats}"
        )
    config = default_config(
        num_nodes=num_nodes,
        rounds=rounds,
        seed=seed,
        blocks_per_round=blocks_per_round,
        hash_power_distribution="uniform",
    )
    return SweepSpec(
        name="figure5",
        config=config,
        protocols=tuple(protocols),
        repeats=1,
        collect_histograms=True,
    )


def _scaling_ladder(num_nodes: int) -> tuple[int, ...]:
    """Ascending network sizes reaching ``num_nodes`` by repeated halving."""
    ladder = [num_nodes]
    while len(ladder) < 4 and ladder[-1] // 2 >= 300:
        ladder.append(ladder[-1] // 2)
    return tuple(sorted(ladder))


def scaling_specs(
    num_nodes: int = 2000,
    rounds: int = 12,
    repeats: int = 1,
    seed: int = 0,
    blocks_per_round: int = 50,
    sizes: tuple[int, ...] | None = None,
    protocols: tuple[str, ...] = ("random", "perigee-subset"),
    latency_memory: str = "dense",
    evaluation: dict | None = None,
) -> list[SweepSpec]:
    """Network-size scaling study over the ``large-network`` scenario.

    One sweep per size, halving down from ``num_nodes`` (e.g. 2000 ->
    [500, 1000, 2000]); every size uses the deterministic Bitnodes regional
    mix so curves compare like with like.  The specs route through the
    standard runtime, so ``perigee-sim scaling --store DIR --cluster`` (or a
    ``submit`` + worker fleet) drains the whole ladder through the
    distributed queue — this is the grid that exercises the array-native
    observation pipeline's large-N headroom.

    ``latency_memory="sparse"`` runs every rung on the on-demand latency
    backend (``latency_model="geographic-sparse"``, O(N) memory — required
    past N ~ 20k), and ``evaluation`` carries
    :class:`~repro.metrics.evaluator.DelayEvaluator` parameters to every
    task, e.g. ``{"mode": "sampled", "sample_size": 256}``; both are part of
    the task descriptions, so cluster workers pick them up automatically.
    """
    if latency_memory not in ("dense", "sparse"):
        raise ValueError("latency_memory must be 'dense' or 'sparse'")
    sizes = _scaling_ladder(num_nodes) if sizes is None else tuple(
        sorted(set(int(size) for size in sizes))
    )
    if not sizes:
        raise ValueError("sizes must be non-empty")
    latency_model = (
        "geographic-sparse" if latency_memory == "sparse" else "geographic"
    )
    specs = []
    for size in sizes:
        config = default_config(
            num_nodes=size,
            rounds=rounds,
            seed=seed,
            blocks_per_round=blocks_per_round,
            hash_power_distribution="uniform",
            latency_model=latency_model,
        )
        specs.append(
            SweepSpec(
                name=f"scaling-n{size}",
                config=config,
                protocols=tuple(protocols),
                repeats=repeats,
                scenario="large-network",
                evaluation=dict(evaluation or {}),
            )
        )
    return specs


#: name -> builder returning the experiment's sweep specs (most figures are a
#: single sweep; figure4a is one sweep per validation-delay scale).
EXPERIMENT_SPECS = {
    "figure3a": lambda **kw: [figure3a_spec(**kw)],
    "figure3b": lambda **kw: [figure3b_spec(**kw)],
    "figure4a": lambda **kw: figure4a_specs(**kw),
    "figure4b": lambda **kw: [figure4b_spec(**kw)],
    "figure4c": lambda **kw: [figure4c_spec(**kw)],
    "figure5": lambda **kw: [figure5_spec(**kw)],
    "scaling": lambda **kw: scaling_specs(**kw),
}


def build_experiment_specs(
    name: str, *, flight: bool = False, checkpoint_every: int = 0, **grid
) -> list[SweepSpec]:
    """Expand a named experiment into its sweep specs without running it.

    ``flight=True`` and ``checkpoint_every=N`` are handled generically (the
    per-figure spec builders do not know about execution policy): every
    produced spec asks executing workers to flight-record and/or checkpoint
    its tasks.
    """
    try:
        builder = EXPERIMENT_SPECS[name]
    except KeyError as error:
        raise KeyError(
            f"unknown experiment {name!r}; available: {', '.join(EXPERIMENT_SPECS)}"
        ) from error
    return [
        replace(spec, flight=bool(flight), checkpoint_every=int(checkpoint_every))
        for spec in builder(**grid)
    ]


def run_experiment(
    name: str,
    *,
    workers: int = 1,
    store=None,
    progress: ProgressCallback | None = None,
    cluster: bool = False,
    flight: bool = False,
    checkpoint_every: int = 0,
    **grid,
):
    """Run a named experiment of :data:`EXPERIMENT_SPECS` and aggregate it.

    ``grid`` goes to the experiment's spec builder (``num_nodes``,
    ``rounds``, ``repeats``, ``seed``, ``protocols``, ...); the keyword-only
    arguments choose how the sweeps execute (see :func:`_execute_spec`).
    Single-sweep experiments return an :class:`ExperimentResult`;
    ``figure4a`` returns a :class:`ProcessingDelaySweepResult` keyed by the
    ``scales`` it was given and ``scaling`` a :class:`NetworkScalingResult`
    keyed by network size.
    """
    if name == "figure4a":
        # Materialised once: the spec builder and the result keys both
        # iterate it.
        grid["scales"] = tuple(grid.get("scales", FIGURE4A_SCALES))
    specs = build_experiment_specs(
        name, flight=flight, checkpoint_every=checkpoint_every, **grid
    )
    store = _resolve_store(store)
    results = [
        records_to_result(
            _execute_spec(
                spec,
                workers=workers,
                store=store,
                progress=progress,
                cluster=cluster,
            ),
            name=spec.name,
        )
        for spec in specs
    ]
    if name == "figure4a":
        scales = grid["scales"]
        return ProcessingDelaySweepResult(
            scales=scales, results=dict(zip(scales, results))
        )
    if name == "scaling":
        sizes = tuple(spec.config.num_nodes for spec in specs)
        return NetworkScalingResult(sizes=sizes, results=dict(zip(sizes, results)))
    (result,) = results
    return result
