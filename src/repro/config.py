"""Simulation configuration objects.

The configuration mirrors the experimental setup of Section 5.1 of the paper:
1000 nodes spread over seven geographic regions, 8 outgoing connections,
up to 20 accepted incoming connections, a 50 ms mean block-validation delay,
uniform hash power and small blocks (so propagation is dominated by link and
validation delays).

All stochastic quantities are derived from a seed carried in the
configuration, so experiments are exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Mapping

# Default connection limits used by Bitcoin-like clients (Section 2.1).
DEFAULT_OUTGOING_CONNECTIONS = 8
DEFAULT_MAX_INCOMING_CONNECTIONS = 20

# Default Perigee round parameters (Section 4 / Section 5.1).
DEFAULT_BLOCKS_PER_ROUND = 100
DEFAULT_EXPLORATION_PEERS = 2

# Default block-validation delay in milliseconds (Section 5.1, item 4).
DEFAULT_VALIDATION_DELAY_MS = 50.0


class ConfigurationError(ValueError):
    """Raised when a configuration is internally inconsistent."""


@dataclass(frozen=True)
class SimulationConfig:
    """Static parameters of a block-propagation simulation.

    Attributes
    ----------
    num_nodes:
        Number of Bitcoin server nodes in the overlay.
    out_degree:
        Number of outgoing connections each node maintains (``dout`` in the
        paper, default 8).
    max_incoming:
        Maximum number of incoming connections a node accepts (``din`` in the
        paper, default 20).  Additional connection requests are declined.
    blocks_per_round:
        Number of blocks mined during one Perigee round (``|B|``).
    exploration_peers:
        Number of random peers each node connects to at the end of every round
        for exploration (``ev``).
    validation_delay_ms:
        Mean per-node block validation delay in milliseconds.
    validation_delay_jitter:
        Relative standard deviation of the per-node validation delay.  A value
        of ``0`` gives every node exactly ``validation_delay_ms``.
    hash_power_distribution:
        Name of the hash power distribution: ``"uniform"``, ``"exponential"``
        or ``"concentrated"`` (10% of nodes hold 90% of the power).
    latency_model:
        Name of the latency model: ``"geographic"`` (iPlane-like region
        matrix, dense N x N backend), ``"geographic-sparse"`` (same model,
        on-demand pair computation in O(N) memory — the large-N backend) or
        ``"metric"`` (hypercube embedding).  This field alone picks the
        backend, for a standalone ``Simulator`` and for sweep tasks alike
        (:func:`repro.latency.factory.build_latency_model`).
    metric_dimension:
        Dimension of the hypercube when ``latency_model == "metric"``.
    hash_power_target:
        Fraction of total hash power a block must reach for the primary delay
        metric (0.9 in the paper).
    seed:
        Seed for all random draws in the experiment.
    rounds:
        Number of protocol rounds to simulate.
    bandwidth_mbps:
        Must stay ``None``: the simulator's analytic engine models the
        paper's "small blocks" default, where link propagation dominates,
        and never reads a bandwidth.  Any other value is rejected so that
        two tasks differing only here cannot hash apart while producing the
        same records.
    block_size_kb:
        Block size in kilobytes stamped on every simulated block.
    extra:
        Free-form extension parameters consumed by specific experiments
        (e.g. relay-network settings).
    """

    num_nodes: int = 1000
    out_degree: int = DEFAULT_OUTGOING_CONNECTIONS
    max_incoming: int = DEFAULT_MAX_INCOMING_CONNECTIONS
    blocks_per_round: int = DEFAULT_BLOCKS_PER_ROUND
    exploration_peers: int = DEFAULT_EXPLORATION_PEERS
    validation_delay_ms: float = DEFAULT_VALIDATION_DELAY_MS
    validation_delay_jitter: float = 0.0
    hash_power_distribution: str = "uniform"
    latency_model: str = "geographic"
    metric_dimension: int = 2
    hash_power_target: float = 0.9
    seed: int = 0
    rounds: int = 20
    bandwidth_mbps: float | None = None
    block_size_kb: float = 100.0
    extra: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` if the configuration is invalid."""
        if self.num_nodes < 2:
            raise ConfigurationError("num_nodes must be at least 2")
        if self.out_degree < 1:
            raise ConfigurationError("out_degree must be at least 1")
        if self.out_degree >= self.num_nodes:
            raise ConfigurationError("out_degree must be smaller than num_nodes")
        if self.max_incoming < 1:
            raise ConfigurationError("max_incoming must be at least 1")
        if self.blocks_per_round < 1:
            raise ConfigurationError("blocks_per_round must be at least 1")
        if self.exploration_peers < 0:
            raise ConfigurationError("exploration_peers must be non-negative")
        if self.exploration_peers >= self.out_degree:
            raise ConfigurationError(
                "exploration_peers must be smaller than out_degree"
            )
        if self.validation_delay_ms < 0:
            raise ConfigurationError("validation_delay_ms must be non-negative")
        if not 0.0 < self.hash_power_target <= 1.0:
            raise ConfigurationError("hash_power_target must be in (0, 1]")
        if self.hash_power_distribution not in (
            "uniform",
            "exponential",
            "concentrated",
        ):
            raise ConfigurationError(
                f"unknown hash power distribution: {self.hash_power_distribution!r}"
            )
        if self.latency_model not in ("geographic", "geographic-sparse", "metric"):
            raise ConfigurationError(
                f"unknown latency model: {self.latency_model!r}"
            )
        if self.metric_dimension < 1:
            raise ConfigurationError("metric_dimension must be at least 1")
        if self.rounds < 1:
            raise ConfigurationError("rounds must be at least 1")
        if self.bandwidth_mbps is not None:
            raise ConfigurationError(
                "bandwidth_mbps is not read by the simulator and must be None"
            )
        if self.block_size_kb <= 0:
            raise ConfigurationError("block_size_kb must be positive")

    @property
    def retained_neighbors(self) -> int:
        """Number of scored neighbors retained each round (``dv - ev``)."""
        return self.out_degree - self.exploration_peers

    def with_overrides(self, **kwargs: Any) -> "SimulationConfig":
        """Return a copy of the configuration with the given fields replaced."""
        return replace(self, **kwargs)

    def describe(self) -> dict[str, Any]:
        """Return a plain dictionary summary, useful for logging and reports."""
        return {
            "num_nodes": self.num_nodes,
            "out_degree": self.out_degree,
            "max_incoming": self.max_incoming,
            "blocks_per_round": self.blocks_per_round,
            "exploration_peers": self.exploration_peers,
            "validation_delay_ms": self.validation_delay_ms,
            "hash_power_distribution": self.hash_power_distribution,
            "latency_model": self.latency_model,
            "hash_power_target": self.hash_power_target,
            "rounds": self.rounds,
            "seed": self.seed,
            "bandwidth_mbps": self.bandwidth_mbps,
            "block_size_kb": self.block_size_kb,
        }

    def to_dict(self) -> dict[str, Any]:
        """Lossless dictionary form covering *every* field.

        Unlike :meth:`describe` (a human-oriented summary), this is the
        round-trippable serialisation used by the runtime layer to embed a
        configuration in persisted task records.  ``extra`` values must be
        JSON-serialisable for the record store to accept the task.
        """
        return {
            "num_nodes": self.num_nodes,
            "out_degree": self.out_degree,
            "max_incoming": self.max_incoming,
            "blocks_per_round": self.blocks_per_round,
            "exploration_peers": self.exploration_peers,
            "validation_delay_ms": self.validation_delay_ms,
            "validation_delay_jitter": self.validation_delay_jitter,
            "hash_power_distribution": self.hash_power_distribution,
            "latency_model": self.latency_model,
            "metric_dimension": self.metric_dimension,
            "hash_power_target": self.hash_power_target,
            "seed": self.seed,
            "rounds": self.rounds,
            "bandwidth_mbps": self.bandwidth_mbps,
            "block_size_kb": self.block_size_kb,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "SimulationConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        return cls(**dict(data))


def default_config(**overrides: Any) -> SimulationConfig:
    """Return the paper's default configuration, optionally overridden.

    This is the "default setting" of Section 5.1: uniform hash power,
    geography-derived propagation delays, small blocks, and a 50 ms mean
    validation delay.
    """
    return SimulationConfig().with_overrides(**overrides) if overrides else SimulationConfig()
