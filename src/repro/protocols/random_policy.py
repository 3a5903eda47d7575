"""The random connection policy (Section 3.1).

This is the de facto protocol of Bitcoin and most deployed blockchains: every
node connects its outgoing slots to peers drawn uniformly at random from the
set of known addresses, oblivious to latency, bandwidth, hash power or
geography.  It is the primary baseline of the paper's evaluation and the
topology Theorem 1 shows to be logarithmically suboptimal.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import P2PNetwork
from repro.core.observations import RoundObservations
from repro.protocols.base import (
    NeighborSelectionProtocol,
    ProtocolContext,
    random_initial_topology,
)


class RandomProtocol(NeighborSelectionProtocol):
    """Connect each outgoing slot to a uniformly random peer.

    Parameters
    ----------
    reshuffle_each_round:
        When ``True`` the whole topology is re-randomised at the end of every
        round.  The paper keeps the baseline static ("we do not change the
        topology with each round"), which is the default here; the dynamic
        variant exists for ablations on how much of Perigee's advantage comes
        from adaptivity versus mere churn.
    """

    name = "random"

    def __init__(self, reshuffle_each_round: bool = False) -> None:
        self._reshuffle = reshuffle_each_round
        self.is_adaptive = reshuffle_each_round

    def build_topology(
        self,
        context: ProtocolContext,
        network: P2PNetwork,
        rng: np.random.Generator,
    ) -> None:
        random_initial_topology(network, rng)

    def update(
        self,
        context: ProtocolContext,
        network: P2PNetwork,
        observations: RoundObservations,
        rng: np.random.Generator,
    ) -> None:
        if not self._reshuffle:
            return
        order = rng.permutation(network.num_nodes)
        for node_id in order:
            network.disconnect_all_outgoing(int(node_id))
        network.redial(order, rng)

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["reshuffle_each_round"] = self._reshuffle
        return info
