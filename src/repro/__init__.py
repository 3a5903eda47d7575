"""Reproduction of *Perigee: Efficient Peer-to-Peer Network Design for Blockchains*.

The package provides a complete simulation framework for studying neighbor
selection protocols in blockchain peer-to-peer networks, following the system
model and evaluation methodology of Mao et al., PODC 2020.

Top-level convenience imports expose the most commonly used entry points:

* :class:`repro.config.SimulationConfig` — experiment configuration.
* :class:`repro.core.simulator.Simulator` — the round-based simulation driver.
* :func:`repro.analysis.experiments.run_experiment` — runs any of the paper's
  experiments by name (``run_experiment("figure3a", num_nodes=300)``).
* :mod:`repro.protocols` — all neighbor selection protocols (baselines and
  Perigee variants).
"""

from repro.config import SimulationConfig
from repro.core.block import Block
from repro.core.network import P2PNetwork
from repro.core.node import Node
from repro.core.simulator import RoundResult, Simulator
from repro.version import __version__

__all__ = [
    "Block",
    "Node",
    "P2PNetwork",
    "RoundResult",
    "SimulationConfig",
    "Simulator",
    "__version__",
]
