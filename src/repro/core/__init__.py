"""Core simulation substrate: nodes, blocks, the p2p overlay graph,
block-propagation engines, observation collection and the round-based
simulation driver."""
