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
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from repro.config import SimulationConfig, default_config
from repro.metrics.delay import DelayCurve, improvement_over_baseline
from repro.metrics.topology import EdgeLatencyHistogram
from repro.runtime.aggregate import records_to_result
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
class ExperimentResult:
    """Per-protocol delay curves for one experiment.

    Attributes
    ----------
    name:
        Experiment identifier (e.g. ``"figure3a"``).
    config:
        The configuration shared by every protocol run.
    curves:
        Protocol name -> mean :class:`DelayCurve` across repeats (delays to the
        90% hash power target unless the experiment says otherwise).
    curves_50:
        Same, for the 50% hash power target.
    histograms:
        Optional edge-latency histograms (only populated by Figure 5).
    """

    name: str
    config: SimulationConfig
    curves: dict[str, DelayCurve] = field(default_factory=dict)
    curves_50: dict[str, DelayCurve] = field(default_factory=dict)
    histograms: dict[str, EdgeLatencyHistogram] = field(default_factory=dict)

    def improvement(
        self, candidate: str, baseline: str = "random", statistic: str = "median"
    ) -> float:
        """Relative improvement of ``candidate`` over ``baseline``."""
        return improvement_over_baseline(
            self.curves[candidate], self.curves[baseline], statistic
        )

    def protocol_names(self) -> list[str]:
        return list(self.curves)


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


def _execute_spec(
    spec: SweepSpec,
    workers: int = 1,
    store=None,
    executor=None,
    progress: ProgressCallback | None = None,
    cluster: bool = False,
):
    """Shared execution path: resolve store/executor, run the sweep.

    ``cluster=True`` routes the sweep through the store-backed distributed
    queue (:class:`~repro.runtime.cluster.ClusterExecutor`): tasks are
    published to ``<store>/cluster/`` where any number of external
    ``perigee-sim worker`` processes help drain them, with this process
    participating as one inline worker.

    A spec flagged for flight recording (``spec.flight``) or periodic
    checkpointing (``spec.checkpoint_every > 0``) needs a store: per-round
    ``runs/`` artifacts and ``checkpoints/`` snapshots live inside it.
    """
    resolved_store = _resolve_store(store)
    if spec.flight and resolved_store is None:
        raise ValueError(
            "flight recording persists per-round artifacts into the "
            "result store; pass store=/--store together with "
            "flight/--flight-recorder"
        )
    if spec.checkpoint_every and resolved_store is None:
        raise ValueError(
            "checkpointing persists round snapshots into the result "
            "store; pass store=/--store together with "
            "checkpoint_every/--checkpoint-every"
        )
    if cluster:
        if resolved_store is None:
            raise ValueError(
                "cluster execution needs a result store (the on-disk work "
                "queue lives inside it); pass store=/--store"
            )
        if workers > 1:
            raise ValueError(
                "cluster execution drains through the store's work queue; "
                "start extra 'perigee-sim worker' processes instead of "
                "passing workers > 1"
            )
        if executor is None:
            from repro.runtime.cluster import ClusterExecutor

            executor = ClusterExecutor(resolved_store)
    elif executor is None:
        executor = make_executor(workers)
    return execute_sweep(
        spec, executor=executor, store=resolved_store, progress=progress
    )


def compare_protocols(
    config: SimulationConfig,
    protocol_names: tuple[str, ...] | list[str],
    repeats: int = 1,
    rounds: int | None = None,
    collect_histograms: bool = False,
    experiment_name: str = "custom",
    scenario: str = "default",
    scenario_params: Mapping[str, Any] | None = None,
    workers: int = 1,
    store=None,
    executor=None,
    progress: ProgressCallback | None = None,
    cluster: bool = False,
    flight: bool = False,
    checkpoint_every: int = 0,
) -> ExperimentResult:
    """Run several protocols on shared populations and return their curves.

    Parameters
    ----------
    config:
        The shared simulation configuration.
    protocol_names:
        Registry names of the protocols to compare.
    repeats:
        Number of independent population/latency draws (the paper uses 3).
    rounds:
        Rounds to run adaptive protocols for (defaults to ``config.rounds``).
    collect_histograms:
        Also compute the Figure 5 edge-latency histogram of each final
        topology (first repeat).
    scenario / scenario_params:
        Name and parameters of a registered environment scenario
        (:mod:`repro.runtime.scenarios`) that builds each repeat's population
        and latency model.
    workers:
        Number of worker processes; 1 (the default) runs serially in-process.
    store:
        Optional :class:`~repro.runtime.store.ResultStore` or directory path;
        completed tasks are persisted and served from cache on re-runs.
    executor:
        Explicit executor instance overriding ``workers``.
    progress:
        Optional ``(done, total, record)`` callback invoked per finished task.
    cluster:
        Execute through the distributed store-backed work queue instead of
        an in-process pool (requires ``store``); external ``perigee-sim
        worker`` processes sharing the store cooperate on the grid.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    rounds = config.rounds if rounds is None else rounds
    spec = SweepSpec(
        name=experiment_name,
        config=config,
        protocols=tuple(protocol_names),
        repeats=repeats,
        rounds=rounds,
        scenario=scenario,
        scenario_params=dict(scenario_params or {}),
        collect_histograms=collect_histograms,
        flight=bool(flight),
        checkpoint_every=int(checkpoint_every),
    )
    records = _execute_spec(
        spec,
        workers=workers,
        store=store,
        executor=executor,
        progress=progress,
        cluster=cluster,
    )
    return records_to_result(records, name=experiment_name)


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
    backend (O(N) memory — required past N ~ 20k), and ``evaluation``
    carries :class:`~repro.metrics.evaluator.DelayEvaluator` parameters to
    every task, e.g. ``{"mode": "sampled", "sample_size": 256}``; both are
    part of the task descriptions, so cluster workers pick them up
    automatically.
    """
    if latency_memory not in ("dense", "sparse"):
        raise ValueError("latency_memory must be 'dense' or 'sparse'")
    sizes = _scaling_ladder(num_nodes) if sizes is None else tuple(
        sorted(set(int(size) for size in sizes))
    )
    if not sizes:
        raise ValueError("sizes must be non-empty")
    # Keep default-grid task hashes (and stored results) stable: only
    # non-default choices enter the scenario / evaluation parameters.
    scenario_params = (
        {"latency_memory": latency_memory} if latency_memory != "dense" else {}
    )
    specs = []
    for size in sizes:
        config = default_config(
            num_nodes=size,
            rounds=rounds,
            seed=seed,
            blocks_per_round=blocks_per_round,
            hash_power_distribution="uniform",
        )
        specs.append(
            SweepSpec(
                name=f"scaling-n{size}",
                config=config,
                protocols=tuple(protocols),
                repeats=repeats,
                scenario="large-network",
                scenario_params=scenario_params,
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
        scales = tuple(grid.get("scales", FIGURE4A_SCALES))
        return ProcessingDelaySweepResult(
            scales=scales, results=dict(zip(scales, results))
        )
    if name == "scaling":
        sizes = tuple(spec.config.num_nodes for spec in specs)
        return NetworkScalingResult(sizes=sizes, results=dict(zip(sizes, results)))
    (result,) = results
    return result
