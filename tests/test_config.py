"""Tests for the simulation configuration."""

import pytest

from repro.config import ConfigurationError, SimulationConfig, default_config


class TestSimulationConfigDefaults:
    def test_default_matches_paper_section_5_1(self):
        config = SimulationConfig()
        assert config.num_nodes == 1000
        assert config.out_degree == 8
        assert config.max_incoming == 20
        assert config.blocks_per_round == 100
        assert config.exploration_peers == 2
        assert config.validation_delay_ms == pytest.approx(50.0)
        assert config.hash_power_distribution == "uniform"
        assert config.hash_power_target == pytest.approx(0.9)

    def test_retained_neighbors_is_out_degree_minus_exploration(self):
        config = SimulationConfig()
        assert config.retained_neighbors == 6

    def test_default_config_helper_applies_overrides(self):
        config = default_config(num_nodes=50, rounds=5)
        assert config.num_nodes == 50
        assert config.rounds == 5
        assert config.out_degree == 8

    def test_describe_contains_key_fields(self):
        summary = SimulationConfig().describe()
        assert summary["num_nodes"] == 1000
        assert summary["validation_delay_ms"] == pytest.approx(50.0)
        assert "seed" in summary


class TestSimulationConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_nodes": 1},
            {"out_degree": 0},
            {"out_degree": 50, "num_nodes": 40},
            {"max_incoming": 0},
            {"blocks_per_round": 0},
            {"exploration_peers": -1},
            {"exploration_peers": 8},
            {"validation_delay_ms": -1.0},
            {"hash_power_target": 0.0},
            {"hash_power_target": 1.5},
            {"hash_power_distribution": "zipf"},
            {"latency_model": "teleportation"},
            {"metric_dimension": 0},
            {"rounds": 0},
            {"bandwidth_mbps": -5.0},
            {"bandwidth_mbps": 8.0},
            {"block_size_kb": 0.0},
        ],
    )
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ConfigurationError):
            SimulationConfig(**overrides)

    def test_with_overrides_revalidates(self):
        config = SimulationConfig()
        with pytest.raises(ConfigurationError):
            config.with_overrides(out_degree=0)

    def test_with_overrides_returns_new_instance(self):
        config = SimulationConfig()
        other = config.with_overrides(num_nodes=123)
        assert other.num_nodes == 123
        assert config.num_nodes == 1000

    def test_valid_concentrated_distribution_accepted(self):
        config = SimulationConfig(hash_power_distribution="concentrated")
        assert config.hash_power_distribution == "concentrated"

    def test_metric_latency_model_accepted(self):
        config = SimulationConfig(latency_model="metric", metric_dimension=3)
        assert config.metric_dimension == 3
