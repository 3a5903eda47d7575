"""Protocol interface shared by baselines and Perigee variants.

A neighbor-selection protocol owns two decisions:

* how the initial topology is built (``build_topology``), and
* how each node updates its outgoing neighbor set at the end of a round
  given its observation set (``update`` — Algorithm 1 in the paper).

Static baselines (random, geographic, geometric, Kademlia, fully-connected)
only implement the first; adaptive protocols (the Perigee variants) implement
both.  Protocols never mutate simulation state other than the overlay graph
they are handed, and all randomness flows through the generator they receive,
keeping experiments reproducible.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.config import SimulationConfig
from repro.core.network import P2PNetwork
from repro.core.node import Node
from repro.core.observations import RoundObservations
from repro.latency.base import LatencyModel


@dataclass(frozen=True)
class ProtocolContext:
    """Static information protocols may consult.

    Adaptive protocols in the spirit of Perigee must not peek at the latency
    model — they only use observations — but baseline constructions
    (geographic clustering, geometric threshold graphs, the fully connected
    ideal) are *defined* in terms of node locations or pairwise latencies, so
    the context carries both.
    """

    config: SimulationConfig
    nodes: tuple[Node, ...]
    latency: LatencyModel

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def regions(self) -> list[str]:
        """Region of every node, indexed by node id."""
        return [node.region for node in self.nodes]


class NeighborSelectionProtocol(abc.ABC):
    """Base class for all neighbor-selection protocols."""

    #: Human-readable protocol name used in reports and figures.
    name: str = "abstract"

    #: Whether the protocol rewires the topology at the end of each round.
    is_adaptive: bool = False

    @abc.abstractmethod
    def build_topology(
        self,
        context: ProtocolContext,
        network: P2PNetwork,
        rng: np.random.Generator,
    ) -> None:
        """Populate ``network`` with this protocol's initial connections."""

    def update(
        self,
        context: ProtocolContext,
        network: P2PNetwork,
        observations: RoundObservations,
        rng: np.random.Generator,
    ) -> None:
        """Per-round topology update (Algorithm 1).

        ``observations`` holds every node's round observations in columnar
        form (node ``v``'s set is the row range of its receiver slice).  The
        default implementation is a no-op, which is the correct behaviour
        for the static baselines ("we do not change the topology with each
        round", Section 5.1).
        """

    def reset(self) -> None:
        """Clear any per-run internal state (e.g. UCB histories)."""

    def state_dict(self) -> dict[str, object]:
        """JSON-serialisable per-run state for checkpointing.

        Stateless protocols (all static baselines, Perigee Vanilla/Subset —
        pure functions of each round's observations) return ``{}``.
        Protocols that accumulate cross-round state (UCB histories) must
        override both this and :meth:`load_state_dict` so a restored run is
        bit-identical to an uninterrupted one.
        """
        return {}

    def load_state_dict(self, state: dict[str, object]) -> None:
        """Restore per-run state captured by :meth:`state_dict`.

        The default accepts only an empty snapshot; a non-empty one means the
        checkpoint was taken by a stateful protocol and restoring it here
        would silently drop state, so fail loudly instead.
        """
        if state:
            raise ValueError(
                f"protocol {self.name!r} carries no restorable state but the "
                f"checkpoint holds keys {sorted(state)}"
            )

    def describe(self) -> dict[str, object]:
        """Summary of the protocol and its parameters for reports."""
        return {"name": self.name, "adaptive": self.is_adaptive}

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"<{type(self).__name__} name={self.name!r}>"


def random_initial_topology(
    network: P2PNetwork, rng: np.random.Generator
) -> None:
    """Fill every node's outgoing slots with random peers.

    This is both the random baseline's construction and the arbitrary initial
    state from which the Perigee variants start ("Starting from an arbitrary
    initial set of neighbors, e.g. obtained randomly from a bootstrapping
    server", Section 4.1).  Nodes are processed in a random order so no node
    is systematically advantaged in claiming scarce incoming slots; each
    node keeps the peers it has and dials random ones until full
    (:meth:`P2PNetwork.redial`).
    """
    network.redial(rng.permutation(network.num_nodes), rng)
