"""Round-based simulation driver.

The simulator orchestrates the loop of Section 4.1:

1. mine ``|B|`` blocks, each by a node drawn proportionally to hash power;
2. propagate every block over the current overlay and let each node collect
   its observation set (the per-neighbor delivery timestamps);
3. hand the observation sets to the protocol, which rewires each node's
   outgoing connections (Algorithm 1) — static baselines skip this step.

:meth:`Simulator.run` is the one loop over such rounds.  Scoring the
overlay (the Section 2.2 delay metric: time for a block from every node to
reach a target fraction of the hash power) is never part of a round; it is
the explicit :meth:`Simulator.evaluate` call.

The simulator is deliberately thin: all modelling lives in the propagation
engines, all policy lives in the protocols, and all analysis lives in
:mod:`repro.metrics` — which keeps each piece independently testable.
"""

from __future__ import annotations

import numpy as np

from repro.config import SimulationConfig
from repro.core.block import Block
from repro.core.network import P2PNetwork
from repro.core.observations import RoundObservations
from repro.core.propagation import PropagationEngine, PropagationResult
from repro.datasets.bitnodes import NodePopulation, generate_population
from repro.latency.base import LatencyModel
from repro.latency.factory import build_latency_model
from repro.metrics.evaluator import DEFAULT_EVALUATOR, DelayEvaluator
from repro.protocols.base import NeighborSelectionProtocol, ProtocolContext
from repro.telemetry.flight import get_flight_recorder
from repro.telemetry.recorder import get_recorder

#: Bumped whenever the checkpoint layout changes incompatibly; restore
#: refuses snapshots from a different schema instead of misinterpreting them.
CHECKPOINT_SCHEMA = 1


def rng_state_to_json(state: object) -> object:
    """Make a ``Generator.bit_generator.state`` tree JSON-serialisable.

    PCG64 state is already plain (arbitrary-precision ints survive JSON), but
    some bit generators (Philox, SFC64) carry uint64 ndarrays; those are
    tagged and listified so the exact words round-trip.
    """
    if isinstance(state, dict):
        return {key: rng_state_to_json(value) for key, value in state.items()}
    if isinstance(state, np.ndarray):
        return {
            "__ndarray__": state.tolist(),
            "dtype": state.dtype.str,
        }
    if isinstance(state, np.integer):
        return int(state)
    return state


def rng_state_from_json(state: object) -> object:
    """Invert :func:`rng_state_to_json`."""
    if isinstance(state, dict):
        if "__ndarray__" in state:
            return np.array(state["__ndarray__"], dtype=np.dtype(state["dtype"]))
        return {key: rng_state_from_json(value) for key, value in state.items()}
    return state


class Simulator:
    """Round-based simulation of block propagation under a protocol.

    Parameters
    ----------
    config:
        Simulation configuration.
    protocol:
        The neighbor-selection protocol under study.
    population:
        Optional pre-generated node population; generated from ``config`` when
        omitted.
    latency:
        Optional latency model; built from ``config.latency_model`` by
        :func:`~repro.latency.factory.build_latency_model` when omitted.
    rng:
        Optional random generator; seeded from ``config.seed`` when omitted.
    delay_evaluator:
        Optional :class:`~repro.metrics.evaluator.DelayEvaluator` policy for
        :meth:`evaluate`.  The default is exact (chunked) at paper scale and
        switches to hash-power-weighted source sampling at large N.
    """

    def __init__(
        self,
        config: SimulationConfig,
        protocol: NeighborSelectionProtocol,
        population: NodePopulation | None = None,
        latency: LatencyModel | None = None,
        rng: np.random.Generator | None = None,
        delay_evaluator: DelayEvaluator | None = None,
    ) -> None:
        self._config = config
        self._protocol = protocol
        self._evaluator = (
            delay_evaluator if delay_evaluator is not None else DEFAULT_EVALUATOR
        )
        self._rng = rng if rng is not None else np.random.default_rng(config.seed)
        self._population = (
            population
            if population is not None
            else generate_population(config, self._rng)
        )
        if len(self._population) != config.num_nodes:
            raise ValueError("population size must match config.num_nodes")
        self._latency = (
            latency
            if latency is not None
            else build_latency_model(config, self._population, self._rng)
        )
        if self._latency.num_nodes != config.num_nodes:
            raise ValueError("latency model size must match config.num_nodes")
        self._engine = PropagationEngine(
            self._latency, self._population.validation_delays
        )
        self._context = ProtocolContext(
            config=config, nodes=self._population.nodes, latency=self._latency
        )
        self._network = P2PNetwork(
            num_nodes=config.num_nodes,
            out_degree=config.out_degree,
            max_incoming=config.max_incoming,
        )
        self._protocol.reset()
        self._protocol.build_topology(self._context, self._network, self._rng)
        self._hash_power = self._population.hash_power
        self._next_block_id = 0
        self._rounds_completed = 0

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    @property
    def config(self) -> SimulationConfig:
        return self._config

    @property
    def protocol(self) -> NeighborSelectionProtocol:
        return self._protocol

    @property
    def population(self) -> NodePopulation:
        return self._population

    @property
    def latency_model(self) -> LatencyModel:
        return self._latency

    @property
    def network(self) -> P2PNetwork:
        """The current overlay (mutated in place as rounds execute)."""
        return self._network

    @property
    def engine(self) -> PropagationEngine:
        return self._engine

    @property
    def context(self) -> ProtocolContext:
        return self._context

    @property
    def delay_evaluator(self) -> DelayEvaluator:
        return self._evaluator

    @property
    def rounds_completed(self) -> int:
        """Number of rounds executed (or restored) so far.

        It is also the index of the next round :meth:`run_round` executes.
        """
        return self._rounds_completed

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, object]:
        """JSON-serialisable snapshot of everything a round depends on.

        Captures the round counter, the block-id counter (miner assignment
        flows from the RNG + hash power, both reproducible), the exact RNG
        state, the overlay topology, and the protocol's cross-round state.
        The environment (population, latency, propagation engine, evaluator)
        is *not* captured: it is a deterministic function of the task's
        environment seed and is rebuilt identically on restore.

        The hard contract: ``load_state_dict(state_dict())`` into a freshly
        constructed, same-seeded simulator makes every subsequent round
        bit-identical to the uninterrupted run.
        """
        return {
            "schema": CHECKPOINT_SCHEMA,
            "protocol": self._protocol.name,
            "num_nodes": self._config.num_nodes,
            "rounds_completed": self._rounds_completed,
            "next_block_id": self._next_block_id,
            "rng": rng_state_to_json(self._rng.bit_generator.state),
            "network": self._network.state_dict(),
            "protocol_state": self._protocol.state_dict(),
        }

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore a snapshot captured by :meth:`state_dict`.

        Raises ``ValueError`` for any fault of the snapshot, chained from
        the original error: a different schema, protocol or population size
        (restoring such a snapshot could only produce silently wrong
        results), or a part that does not load.  The restore is all or
        nothing: on any fault the simulator is put back to the state it had
        before the error is raised, so a caller that falls back to running
        from there runs exactly as if it had never tried.
        """
        previous = self.state_dict()
        try:
            self._restore(state)
        except Exception as error:
            self._restore(previous)
            raise ValueError(f"checkpoint does not load: {error}") from error

    def _restore(self, state: dict[str, object]) -> None:
        schema = state.get("schema")
        if schema != CHECKPOINT_SCHEMA:
            raise ValueError(
                f"checkpoint schema {schema!r} is not supported "
                f"(expected {CHECKPOINT_SCHEMA})"
            )
        if state["protocol"] != self._protocol.name:
            raise ValueError(
                f"checkpoint was taken under protocol {state['protocol']!r}, "
                f"simulator runs {self._protocol.name!r}"
            )
        if int(state["num_nodes"]) != self._config.num_nodes:
            raise ValueError(
                f"checkpoint is for {state['num_nodes']} nodes, "
                f"config has {self._config.num_nodes}"
            )
        self._network.load_state_dict(state["network"])
        self._protocol.load_state_dict(state.get("protocol_state", {}))
        self._rng.bit_generator.state = rng_state_from_json(state["rng"])
        self._next_block_id = int(state["next_block_id"])
        self._rounds_completed = int(state["rounds_completed"])

    # ------------------------------------------------------------------ #
    # Simulation steps
    # ------------------------------------------------------------------ #
    def mine_blocks(self, count: int | None = None) -> list[Block]:
        """Draw miners proportionally to hash power and mint blocks."""
        count = self._config.blocks_per_round if count is None else count
        if count < 1:
            raise ValueError("count must be positive")
        miners = self._rng.choice(
            self._config.num_nodes, size=count, p=self._hash_power
        )
        blocks = []
        for miner in miners:
            blocks.append(
                Block(
                    block_id=self._next_block_id,
                    miner=int(miner),
                    size_kb=self._config.block_size_kb,
                )
            )
            self._next_block_id += 1
        return blocks

    def propagate_blocks(self, blocks: list[Block]) -> PropagationResult:
        """Propagate the given blocks over the current overlay."""
        sources = np.array([block.miner for block in blocks], dtype=int)
        return self._engine.propagate(self._network, sources)

    def collect_observations(
        self, blocks: list[Block], result: PropagationResult
    ) -> RoundObservations:
        """Build every node's observation set for a round.

        Every node records, for every block, the delivery timestamp from each
        of its communication neighbors (Section 4.1).  The engine emits all
        of them at once as one columnar
        :class:`~repro.core.observations.RoundObservations`, which is what
        the protocol's update receives.
        """
        block_ids = np.array([block.block_id for block in blocks], dtype=np.int64)
        observations = self._engine.round_observations(
            self._network, result, block_ids=block_ids
        )
        get_recorder().incr("round.edges_observed", observations.num_directed_edges)
        return observations

    def evaluate(self) -> np.ndarray:
        """Per-source time to reach the configured hash power target (ms).

        Routed through the simulator's :class:`DelayEvaluator`: exact
        (chunked, bit-identical to the all-pairs path) at small N, sampled
        sources past the evaluator's threshold — in which case the array
        covers the sampled sources only.  Rounds never evaluate; this is
        the one call that scores the current overlay.
        """
        target = self._config.hash_power_target
        return self._evaluator.evaluate(
            self._engine,
            self._network,
            self._hash_power,
            target_fractions=(target,),
        ).reach(target)

    def run_round(self) -> None:
        """Execute one full round: mine, propagate, observe, update.

        Each phase runs under a telemetry span (``round.mine`` /
        ``round.propagate`` / ``round.observe`` / ``round.update``); with
        the default no-op recorder the spans cost one function call each
        and touch no RNG, so instrumented and uninstrumented runs are
        bit-identical.

        When a flight recorder is installed
        (:func:`repro.telemetry.flight.use_flight_recorder`) the finished
        round is additionally handed to it — after all simulation work, so
        recording only ever *reads* state and cannot perturb the run.
        """
        recorder = get_recorder()
        flight = get_flight_recorder()
        with recorder.span("round.mine"):
            blocks = self.mine_blocks()
        with recorder.span("round.propagate"):
            result = self.propagate_blocks(blocks)
        if self._protocol.is_adaptive:
            with recorder.span("round.observe"):
                observations = self.collect_observations(blocks, result)
            with recorder.span("round.update"):
                self._protocol.update(
                    self._context, self._network, observations, self._rng
                )
        self._rounds_completed += 1
        recorder.incr("round.count")
        recorder.incr("round.blocks_mined", len(blocks))
        if flight.enabled:
            with recorder.span("round.flight"):
                flight.on_round(self)

    def run(self, rounds: int | None = None) -> None:
        """Run rounds until :attr:`rounds_completed` reaches ``rounds``.

        ``rounds`` (default ``config.rounds``) counts from round zero, so a
        simulator restored from a round-``k`` snapshot runs only the
        remaining ``rounds - k``.  The overlay is not evaluated; call
        :meth:`evaluate` for the delay metric.
        """
        rounds = self._config.rounds if rounds is None else rounds
        if rounds < 1:
            raise ValueError("rounds must be positive")
        while self._rounds_completed < rounds:
            self.run_round()
