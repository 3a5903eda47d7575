"""Block model.

Blocks in this simulator are identified by a dense integer index and carry
only the metadata needed by the propagation model: the miner that produced
them, the (global, simulated) time they were mined and their size.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Block:
    """A mined block broadcast over the p2p network.

    Attributes
    ----------
    block_id:
        Dense integer identifier, unique within a simulation.
    miner:
        ``node_id`` of the node that mined the block.
    mined_at_ms:
        Simulated wall-clock time at which the block was mined, in
        milliseconds.  The paper's analysis treats each block broadcast
        independently, so the propagation engine never reads it.
    size_kb:
        Block size in kilobytes, stamped from the configuration.  The
        engine models the paper's small-block setting, where link latency
        dominates, and never reads it.
    """

    block_id: int
    miner: int
    mined_at_ms: float = 0.0
    size_kb: float = 100.0

    def __post_init__(self) -> None:
        if self.block_id < 0:
            raise ValueError("block_id must be non-negative")
        if self.miner < 0:
            raise ValueError("miner must be a valid node id")
        if self.size_kb <= 0:
            raise ValueError("size_kb must be positive")

