"""Tests for the node and block value objects."""

import pytest

from repro.core.block import Block
from repro.core.node import Node, normalize_hash_power, total_hash_power


def make_node(node_id=0, hash_power=0.5, validation=50.0, region="europe"):
    return Node(
        node_id=node_id,
        region=region,
        hash_power=hash_power,
        validation_delay_ms=validation,
    )


class TestNode:
    def test_valid_construction(self):
        node = make_node()
        assert node.node_id == 0
        assert node.region == "europe"
        assert not node.is_relay

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_id": -1},
            {"hash_power": -0.1},
            {"validation": -5.0},
        ],
    )
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(ValueError):
            make_node(**kwargs)

    def test_with_hash_power_preserves_other_fields(self):
        node = make_node(hash_power=0.25)
        updated = node.with_hash_power(0.75)
        assert updated.hash_power == pytest.approx(0.75)
        assert updated.node_id == node.node_id
        assert updated.region == node.region
        assert node.hash_power == pytest.approx(0.25)

    def test_with_validation_delay(self):
        node = make_node(validation=50.0)
        updated = node.with_validation_delay(5.0)
        assert updated.validation_delay_ms == pytest.approx(5.0)
        assert node.validation_delay_ms == pytest.approx(50.0)

    def test_as_relay_marks_relay(self):
        node = make_node()
        assert node.as_relay().is_relay
        assert not node.is_relay


class TestHashPowerHelpers:
    def test_total_hash_power(self):
        nodes = [make_node(node_id=i, hash_power=0.2) for i in range(5)]
        assert total_hash_power(nodes) == pytest.approx(1.0)

    def test_normalize_hash_power_sums_to_one(self):
        nodes = [make_node(node_id=i, hash_power=float(i + 1)) for i in range(4)]
        normalized = normalize_hash_power(nodes)
        assert total_hash_power(normalized) == pytest.approx(1.0)
        # Relative ordering preserved.
        powers = [node.hash_power for node in normalized]
        assert powers == sorted(powers)

    def test_normalize_zero_total_rejected(self):
        nodes = [make_node(node_id=i, hash_power=0.0) for i in range(3)]
        with pytest.raises(ValueError):
            normalize_hash_power(nodes)


class TestBlock:
    def test_valid_construction(self):
        block = Block(block_id=3, miner=7, mined_at_ms=100.0, size_kb=500.0)
        assert block.block_id == 3
        assert block.miner == 7

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"block_id": -1, "miner": 0},
            {"block_id": 0, "miner": -2},
            {"block_id": 0, "miner": 0, "size_kb": 0.0},
        ],
    )
    def test_invalid_construction_rejected(self, kwargs):
        with pytest.raises(ValueError):
            Block(**kwargs)
