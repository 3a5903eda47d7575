"""Tests for the incremental (partial) deployment experiment."""

import numpy as np
import pytest

from repro.analysis.incremental import (
    MixedDeploymentProtocol,
    run_incremental_deployment,
)
from repro.config import default_config
from repro.core.simulator import Simulator
from repro.datasets.bitnodes import generate_population
from repro.latency.geo import GeographicLatencyModel
from repro.protocols.perigee.vanilla import PerigeeVanillaProtocol


class TestMixedDeploymentProtocol:
    def test_non_adopters_keep_their_initial_outgoing_set(self):
        config = default_config(num_nodes=60, rounds=3, blocks_per_round=15, seed=4)
        rng = np.random.default_rng(4)
        population = generate_population(config, rng)
        latency = GeographicLatencyModel(population.nodes, rng)
        adopters = set(range(0, 30))
        protocol = MixedDeploymentProtocol(adopters)
        simulator = Simulator(
            config, protocol, population=population, latency=latency,
            rng=np.random.default_rng(5),
        )
        before = {
            node: simulator.network.outgoing_neighbors(node)
            for node in simulator.network.node_ids()
        }
        simulator.run(rounds=3)
        after = {
            node: simulator.network.outgoing_neighbors(node)
            for node in simulator.network.node_ids()
        }
        non_adopters = [node for node in range(60) if node not in adopters]
        unchanged = sum(1 for node in non_adopters if before[node] == after[node])
        # Non-adopters never rewire themselves (their incoming connections may
        # still change as adopters rewire).
        assert unchanged == len(non_adopters)
        changed_adopters = sum(1 for node in adopters if before[node] != after[node])
        assert changed_adopters > 0
        simulator.network.validate_invariants()

    def test_inner_variant_can_be_chosen(self):
        protocol = MixedDeploymentProtocol({1, 2}, inner=PerigeeVanillaProtocol())
        assert protocol.inner.name == "perigee-vanilla"
        assert protocol.describe()["adopters"] == 2

    def test_reset_propagates_to_inner(self):
        inner = PerigeeVanillaProtocol()
        protocol = MixedDeploymentProtocol({0}, inner=inner)
        protocol.reset()  # must not raise


class TestRunIncrementalDeployment:
    @pytest.fixture(scope="class")
    def results(self):
        return run_incremental_deployment(
            adoption_fractions=(0.5, 1.0),
            num_nodes=100,
            rounds=8,
            blocks_per_round=30,
            seed=0,
        )

    def test_one_result_per_fraction(self, results):
        assert [r.adoption_fraction for r in results] == [0.5, 1.0]
        for result in results:
            assert np.isfinite(result.adopter_delay_ms)
            assert np.isfinite(result.baseline_delay_ms)

    def test_adopters_benefit_over_baseline(self, results):
        for result in results:
            assert result.adopter_improvement > 0.0

    def test_full_adoption_has_no_non_adopters(self, results):
        full = results[-1]
        assert full.adoption_fraction == 1.0
        assert np.isnan(full.non_adopter_delay_ms) or np.isfinite(
            full.non_adopter_delay_ms
        )

    def test_adopters_do_at_least_as_well_as_non_adopters(self, results):
        partial = results[0]
        assert partial.adopter_delay_ms <= partial.non_adopter_delay_ms * 1.05

    def test_invalid_fractions_rejected(self):
        with pytest.raises(ValueError):
            run_incremental_deployment(adoption_fractions=())
        with pytest.raises(ValueError):
            run_incremental_deployment(adoption_fractions=(0.0,))
        with pytest.raises(ValueError):
            run_incremental_deployment(adoption_fractions=(1.5,))

    def test_config_latency_model_is_honoured(self):
        def baseline_delay(latency_model: str) -> float:
            config = default_config(
                num_nodes=40,
                rounds=1,
                blocks_per_round=10,
                seed=3,
                latency_model=latency_model,
            )
            (result,) = run_incremental_deployment(
                adoption_fractions=(0.5,), config=config
            )
            return result.baseline_delay_ms

        assert baseline_delay("geographic-sparse") != baseline_delay("geographic")
