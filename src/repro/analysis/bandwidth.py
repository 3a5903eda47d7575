"""Bandwidth heterogeneity: Perigee adapts to slow-uplink peers.

The paper's introduction claims that scoring neighbors purely by block
arrival times makes Perigee "automatically tuned to heterogeneity in link
latencies, block validation delays and node bandwidth" — but the evaluation
only varies latencies and validation delays.  This experiment fills the gap.

Model.  Measurement studies (Croman et al., cited in the paper) report node
bandwidths from 3 to 186 Mbit/s.  When a node relays a block, the block must
first be pushed through the node's uplink; in the uncongested regime that is
a per-hop *sender-side* serialisation delay of ``block_size / bandwidth`` —
formally identical to an extra validation delay charged when the block leaves
the node.  The experiment therefore gives a fraction of nodes a slow uplink,
folds the corresponding serialisation time into their per-node delay, and
asks two questions:

* does Perigee still beat the random topology, and
* do Perigee nodes learn to *avoid choosing slow-uplink peers as outgoing
  neighbors* (the structural signature of bandwidth awareness)?

The model is the uncongested limit: uploads are not serialised across
neighbors, which keeps the experiment on the analytic engine and fast enough
to run many rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import default_config
from repro.core.block import Block
from repro.core.network import P2PNetwork
from repro.core.simulator import Simulator
from repro.datasets.bitnodes import NodePopulation, generate_population
from repro.latency.geo import GeographicLatencyModel
from repro.metrics.evaluator import DEFAULT_EVALUATOR
from repro.protocols.registry import make_protocol

#: Default uplink speeds, spanning the range reported for Bitcoin nodes.
DEFAULT_FAST_MBPS = 100.0
DEFAULT_SLOW_MBPS = 4.0


@dataclass(frozen=True)
class BandwidthExperimentResult:
    """Outcome of the bandwidth-heterogeneity experiment for one protocol."""

    protocol: str
    median_delay_ms: float
    slow_node_outgoing_share: float
    slow_node_fraction: float

    @property
    def avoidance(self) -> float:
        """How under-represented slow nodes are among chosen outgoing neighbors.

        1.0 means slow peers are chosen exactly at their population rate;
        values below 1.0 mean they are avoided.
        """
        if self.slow_node_fraction <= 0:
            return float("nan")
        return self.slow_node_outgoing_share / self.slow_node_fraction


def _serialization_delay_ms(block_size_kb: float, bandwidth_mbps: float) -> float:
    return Block(block_id=0, miner=0, size_kb=block_size_kb).transmission_delay_ms(
        bandwidth_mbps
    )


def _slow_outgoing_share(network: P2PNetwork, slow_nodes: set[int]) -> float:
    total = chosen = 0
    for node_id in network.node_ids():
        for peer in network.outgoing_neighbors(node_id):
            total += 1
            if peer in slow_nodes:
                chosen += 1
    return chosen / total if total else float("nan")


def run_bandwidth_experiment(
    num_nodes: int = 150,
    slow_fraction: float = 0.2,
    slow_mbps: float = DEFAULT_SLOW_MBPS,
    fast_mbps: float = DEFAULT_FAST_MBPS,
    block_size_kb: float = 500.0,
    rounds: int = 12,
    blocks_per_round: int = 40,
    seed: int = 0,
    protocols: tuple[str, ...] = ("random", "perigee-subset"),
) -> dict[str, BandwidthExperimentResult]:
    """Compare protocols when a fraction of nodes has a slow uplink.

    Returns one :class:`BandwidthExperimentResult` per protocol.  Perigee
    should both achieve a lower delay and point a smaller share of its
    outgoing connections at slow-uplink nodes than their population share.
    """
    if not 0.0 < slow_fraction < 1.0:
        raise ValueError("slow_fraction must be in (0, 1)")
    if slow_mbps <= 0 or fast_mbps <= 0:
        raise ValueError("bandwidths must be positive")
    if slow_mbps > fast_mbps:
        raise ValueError("slow_mbps must not exceed fast_mbps")
    config = default_config(
        num_nodes=num_nodes,
        rounds=rounds,
        blocks_per_round=blocks_per_round,
        seed=seed,
        block_size_kb=block_size_kb,
    )
    rng = np.random.default_rng(seed)
    population = generate_population(config, rng)
    latency = GeographicLatencyModel(population.nodes, rng)

    num_slow = max(1, int(round(num_nodes * slow_fraction)))
    slow_nodes = set(
        int(node) for node in rng.choice(num_nodes, size=num_slow, replace=False)
    )
    # Fold the sender-side serialisation time into each node's per-hop delay.
    slow_extra = _serialization_delay_ms(block_size_kb, slow_mbps)
    fast_extra = _serialization_delay_ms(block_size_kb, fast_mbps)
    nodes = []
    for node in population.nodes:
        extra = slow_extra if node.node_id in slow_nodes else fast_extra
        nodes.append(node.with_validation_delay(node.validation_delay_ms + extra))
    population = NodePopulation(
        nodes=tuple(nodes), high_power_miners=population.high_power_miners
    )

    results: dict[str, BandwidthExperimentResult] = {}
    for name in protocols:
        simulator = Simulator(
            config,
            make_protocol(name),
            population=population,
            latency=latency,
            rng=np.random.default_rng(seed + 1),
        )
        if simulator.protocol.is_adaptive:
            simulator.run(rounds=rounds)
        evaluation = DEFAULT_EVALUATOR.evaluate(
            simulator.engine,
            simulator.network,
            population.hash_power,
            target_fractions=(config.hash_power_target,),
        )
        results[name] = BandwidthExperimentResult(
            protocol=name,
            median_delay_ms=evaluation.median_ms(config.hash_power_target),
            slow_node_outgoing_share=_slow_outgoing_share(
                simulator.network, slow_nodes
            ),
            slow_node_fraction=num_slow / num_nodes,
        )
    return results
