"""Shared fixtures for the test suite.

Most tests run on deliberately small populations (tens of nodes) so the whole
suite stays fast; the scale-sensitive behaviour (Perigee's advantage over the
random baseline) is exercised by the integration tests and, at larger scale,
by the benchmark harness.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SimulationConfig, default_config
from repro.core.network import P2PNetwork
from repro.core.propagation import PropagationEngine
from repro.datasets.bitnodes import NodePopulation, generate_population
from repro.latency.geo import GeographicLatencyModel


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_config() -> SimulationConfig:
    """A small but otherwise default configuration."""
    return default_config(
        num_nodes=40,
        rounds=3,
        blocks_per_round=20,
        seed=7,
    )


@pytest.fixture
def population(small_config, rng) -> NodePopulation:
    """Node population for the small configuration."""
    return generate_population(small_config, rng)


@pytest.fixture
def latency_model(population, rng) -> GeographicLatencyModel:
    """Geographic latency model over the small population."""
    return GeographicLatencyModel(population.nodes, rng)


@pytest.fixture
def engine(latency_model, population) -> PropagationEngine:
    """Analytic propagation engine for the small population."""
    return PropagationEngine(latency_model, population.validation_delays)


@pytest.fixture
def random_network(small_config, rng) -> P2PNetwork:
    """A random overlay over the small population."""
    network = P2PNetwork(
        num_nodes=small_config.num_nodes,
        out_degree=small_config.out_degree,
        max_incoming=small_config.max_incoming,
    )
    for node_id in rng.permutation(small_config.num_nodes):
        network.fill_random_outgoing(int(node_id), rng)
    return network


def adjacency(network: P2PNetwork) -> list[list[int]]:
    """Every node's sorted communication neighbors, from ``to_numpy_edges``.

    Tests read degrees, neighbor sets and symmetric adjacency from this one
    view of the overlay.
    """
    neighbors: list[list[int]] = [[] for _ in range(network.num_nodes)]
    for u, v in network.to_numpy_edges().tolist():
        neighbors[u].append(v)
        neighbors[v].append(u)
    return [sorted(peers) for peers in neighbors]
