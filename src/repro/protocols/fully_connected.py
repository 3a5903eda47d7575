"""The fully-connected ideal (Section 5.1).

A topology in which every node is directly connected to every other node
gives a theoretical lower bound on block propagation time: every shortest
path (link latencies plus relays' validation delays) is available to it, so
no overlay, being a subgraph, delivers a block sooner.  That path is not
always the direct link: with per-link jitter a relay through a third node is
often faster, so blocks still cross several hops here.  It is not
implementable at Bitcoin scale — it exists purely as the "ideal" reference
curve in the figures — so this protocol bypasses the incoming-connection
limit when constructing the graph.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import P2PNetwork
from repro.protocols.base import NeighborSelectionProtocol, ProtocolContext


class FullyConnectedProtocol(NeighborSelectionProtocol):
    """Every pair of nodes shares a direct connection."""

    name = "ideal"

    def build_topology(
        self,
        context: ProtocolContext,
        network: P2PNetwork,
        rng: np.random.Generator,
    ) -> None:
        del context, rng
        network.make_fully_connected()

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["note"] = "lower bound; ignores connection limits"
        return info
