"""Named environment scenarios: picklable population/latency builders.

Closures cannot cross process boundaries, so the figure runners customise
their environment through *named scenarios*: module-level builder functions
looked up by name in a registry.  A task only carries the scenario name plus
JSON parameters, and each worker resolves the same builders locally.

Builders receive the repeat's environment RNG and must consume it
identically regardless of which protocol's task invoked them — the
environment stream depends only on ``(seed, repeat)``, so every protocol in
a repeat regenerates the exact same population and latency matrix (the
paper's shared-draw methodology) without any cross-process sharing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

from repro.config import SimulationConfig
from repro.datasets.bitnodes import NodePopulation, generate_population
from repro.datasets.regions import REGIONS, region_proportion_vector
from repro.latency.base import LatencyModel
from repro.latency.factory import build_latency_model
from repro.latency.relay import (
    DEFAULT_MINER_SPEEDUP,
    DEFAULT_RELAY_LINK_MS,
    DEFAULT_RELAY_SIZE,
    apply_miner_speedup,
    apply_relay_overlay,
    build_relay_tree,
    tree_overlay,
)

PopulationBuilder = Callable[
    [SimulationConfig, Mapping[str, Any], np.random.Generator], NodePopulation
]
LatencyBuilder = Callable[
    [
        SimulationConfig,
        NodePopulation,
        Mapping[str, Any],
        np.random.Generator,
    ],
    LatencyModel,
]


@dataclass(frozen=True)
class Scenario:
    """Bundle of environment builders a task resolves by name.

    ``build_population`` is called first and may consume the RNG;
    ``build_latency`` continues on the *same* RNG stream, mirroring how the
    legacy serial loop interleaved the two draws.
    """

    name: str
    build_population: PopulationBuilder
    build_latency: LatencyBuilder


def _default_population(
    config: SimulationConfig,
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> NodePopulation:
    return generate_population(config, rng)


def _default_latency(
    config: SimulationConfig,
    population: NodePopulation,
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> LatencyModel:
    """The configuration's latency model (:func:`build_latency_model`).

    ``config.latency_model`` alone picks the backend.  A stored spec that
    still carries the retired ``latency_memory`` scenario parameter is
    rejected rather than run on a backend it did not ask for.
    """
    if "latency_memory" in params:
        raise ValueError(
            "the 'latency_memory' scenario parameter is no longer read; "
            'set latency_model="geographic-sparse" on the configuration '
            "for the on-demand geographic backend"
        )
    return build_latency_model(config, population, rng)


def _miner_speedup_latency(
    config: SimulationConfig,
    population: NodePopulation,
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> LatencyModel:
    """Figure 4(b): fast interconnects among the high-power miners.

    The speedup composes over the base model as a pairwise wrapper, so on
    ``latency_model="geographic-sparse"`` the scenario never materialises an
    N x N matrix and runs at 20k+ nodes.
    """
    base = _default_latency(config, population, params, rng)
    speedup = float(params.get("speedup", DEFAULT_MINER_SPEEDUP))
    return apply_miner_speedup(base, population.high_power_miners, speedup=speedup)


def _relay_population(
    config: SimulationConfig,
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> NodePopulation:
    """Figure 4(c): flag a random subset of nodes as fast relay members."""
    population = generate_population(config, rng)
    relay_size = int(params.get("relay_size", DEFAULT_RELAY_SIZE))
    relay_size = min(relay_size, max(2, config.num_nodes // 3))
    link_ms = float(params.get("relay_link_ms", DEFAULT_RELAY_LINK_MS))
    validation_scale = float(params.get("relay_validation_scale", 0.1))
    overlay = build_relay_tree(
        config.num_nodes, rng, size=relay_size, link_latency_ms=link_ms
    )
    return population.with_relay_members(
        overlay.members, validation_scale=validation_scale
    )


def _relay_latency(
    config: SimulationConfig,
    population: NodePopulation,
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> LatencyModel:
    """Figure 4(c): low-latency relay tree over the flagged members.

    The relay tree is rebuilt deterministically over the members the
    population builder flagged (a 3-ary tree in node-id order), so the fast
    links connect exactly the nodes whose validation delay was reduced.
    The overlay composes pairwise over the base model, so on
    ``latency_model="geographic-sparse"`` the scenario runs at 20k+ nodes
    without a dense matrix.
    """
    base = _default_latency(config, population, params, rng)
    link_ms = float(params.get("relay_link_ms", DEFAULT_RELAY_LINK_MS))
    members = tuple(node.node_id for node in population.nodes if node.is_relay)
    overlay = tree_overlay(members, link_latency_ms=link_ms)
    return apply_relay_overlay(base, overlay, member_pair_latency_ms=link_ms * 4)


def _large_network_population(
    config: SimulationConfig,
    params: Mapping[str, Any],
    rng: np.random.Generator,
) -> NodePopulation:
    """Thousands-of-nodes scenario with the exact Bitnodes regional mix.

    The default population *samples* each node's region, so small networks
    drift from the snapshot proportions and huge ones only match them in
    expectation.  Large-network runs (the scale Ethna-style crawls report —
    roughly 10k reachable nodes) instead allocate region counts
    deterministically by largest remainder, so a 2000- or 5000-node overlay
    reproduces the Bitnodes mix exactly and scaling sweeps compare like with
    like across sizes.  Region assignment order is then shuffled so node id
    carries no geographic information.
    """
    proportions = region_proportion_vector()
    quotas = proportions * config.num_nodes
    counts = np.floor(quotas).astype(int)
    remainder = config.num_nodes - int(counts.sum())
    if remainder > 0:
        for index in np.argsort(-(quotas - counts))[:remainder]:
            counts[index] += 1
    region_indices = np.repeat(np.arange(len(REGIONS)), counts)
    rng.shuffle(region_indices)
    regions = [REGIONS[index] for index in region_indices]
    return generate_population(config, rng, regions=regions)


_SCENARIOS: dict[str, Scenario] = {
    "default": Scenario(
        name="default",
        build_population=_default_population,
        build_latency=_default_latency,
    ),
    "miner-speedup": Scenario(
        name="miner-speedup",
        build_population=_default_population,
        build_latency=_miner_speedup_latency,
    ),
    "relay": Scenario(
        name="relay",
        build_population=_relay_population,
        build_latency=_relay_latency,
    ),
    "large-network": Scenario(
        name="large-network",
        build_population=_large_network_population,
        build_latency=_default_latency,
    ),
}


def available_scenarios() -> list[str]:
    """Names of all registered scenarios, in a stable order."""
    return list(_SCENARIOS)


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name."""
    try:
        return _SCENARIOS[name]
    except KeyError as error:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(_SCENARIOS)}"
        ) from error


def register_scenario(scenario: Scenario) -> None:
    """Register a custom scenario.

    For parallel execution the builders must be importable module-level
    functions (process pools pickle tasks by scenario *name* and resolve the
    registry in each worker, so the registration must also happen at import
    time in the worker, e.g. in the module defining the builders).
    """
    if not scenario.name:
        raise ValueError("scenario name must be non-empty")
    if scenario.name in _SCENARIOS:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _SCENARIOS[scenario.name] = scenario


def unregister_scenario(name: str) -> None:
    """Remove a custom scenario; built-ins cannot be removed."""
    if name in ("default", "miner-speedup", "relay", "large-network"):
        raise ValueError(f"cannot unregister built-in scenario {name!r}")
    _SCENARIOS.pop(name, None)
