"""The analytic engine's per-neighbor forwarding times against an event replay.

``replay_block`` simulates one block delivery by delivery, straight from the
system model: events ``(time, sender, receiver)`` leave a heap in time order,
a node relays ``Δ_u`` after its first receipt (the miner relays at once) and
the hop ``(u, v)`` takes ``δ(u, v)``.  It shares no code with
:class:`~repro.core.propagation.PropagationEngine`.
"""

import heapq

import numpy as np
import pytest

from tests.conftest import adjacency


def replay_block(network, latency, validation_delays, source):
    """Return ``(arrival, deliveries)`` with ``deliveries[v][u]`` the time
    neighbor ``u`` hands the block to ``v``."""
    arrival = np.full(network.num_nodes, np.inf)
    deliveries = {v: {} for v in range(network.num_nodes)}
    neighbors = adjacency(network)
    events = [(0.0, -1, source)]
    while events:
        time, sender, node = heapq.heappop(events)
        if sender >= 0:
            deliveries[node][sender] = time
        if np.isfinite(arrival[node]):
            continue
        arrival[node] = time
        leaves = time if node == source else time + validation_delays[node]
        for neighbor in neighbors[node]:
            heapq.heappush(
                events, (leaves + latency.latency(node, neighbor), node, neighbor)
            )
    return arrival, deliveries


class TestEquivalenceWithAnalyticEngine:
    def test_delivery_times_match_forwarding_times(
        self, engine, latency_model, population, random_network
    ):
        source = 4
        analytic = engine.propagate(random_network, [source])
        forwarding = engine.forwarding_times(random_network, analytic, 0)
        arrival, deliveries = replay_block(
            random_network, latency_model, population.validation_delays, source
        )
        assert np.isfinite(arrival).all()
        assert np.allclose(arrival, analytic.arrival_times[0], rtol=1e-9, atol=1e-6)
        for node, delivered in deliveries.items():
            assert set(delivered) == set(forwarding[node])
            for sender, timestamp in delivered.items():
                assert timestamp == pytest.approx(forwarding[node][sender], rel=1e-9)
