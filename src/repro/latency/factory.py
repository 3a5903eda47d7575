"""The latency model a simulation configuration asks for.

``SimulationConfig.latency_model`` is the one backend selector: this
function is shared by :class:`~repro.core.simulator.Simulator` and the
sweep scenario builders, so a configuration runs on the same backend
whichever of them builds it.
"""

from __future__ import annotations

import numpy as np

from repro.config import SimulationConfig
from repro.datasets.bitnodes import NodePopulation
from repro.latency.base import LatencyModel
from repro.latency.geo import GeographicLatencyModel
from repro.latency.metric_space import MetricSpaceLatencyModel


def build_latency_model(
    config: SimulationConfig,
    population: NodePopulation,
    rng: np.random.Generator,
) -> LatencyModel:
    """Build ``config.latency_model`` over ``population``, drawing from ``rng``.

    ``"metric"`` embeds the nodes in the unit hypercube of
    ``config.metric_dimension``; ``"geographic-sparse"`` is the on-demand
    geographic backend and ``"geographic"`` the dense one.
    """
    if config.latency_model == "metric":
        return MetricSpaceLatencyModel(
            num_nodes=config.num_nodes,
            dimension=config.metric_dimension,
            rng=rng,
        )
    memory = "sparse" if config.latency_model == "geographic-sparse" else "dense"
    return GeographicLatencyModel(population.nodes, rng, memory=memory)
