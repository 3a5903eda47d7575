"""Core simulation substrate: nodes, blocks, the p2p overlay graph,
block-propagation engines, observation collection and the round-based
simulation driver."""

from repro.core.block import Block
from repro.core.network import P2PNetwork
from repro.core.node import Node
from repro.core.observations import RoundObservations
from repro.core.propagation import PropagationEngine, PropagationResult
from repro.core.simulator import RoundResult, Simulator

__all__ = [
    "Block",
    "Node",
    "P2PNetwork",
    "PropagationEngine",
    "PropagationResult",
    "RoundObservations",
    "RoundResult",
    "Simulator",
]
