"""Neighbor-selection protocols.

Baselines (Section 3 / Section 5.1):

* :class:`repro.protocols.random_policy.RandomProtocol` — Bitcoin's default
  random connection policy.
* :class:`repro.protocols.geographic.GeographicProtocol` — half of the
  connections to same-continent peers, half random.
* :class:`repro.protocols.geometric.GeometricProtocol` — the threshold-latency
  geometric graph of Section 3.3 (theoretical optimum family).
* :class:`repro.protocols.kademlia.KademliaProtocol` — Kadcast-style
  structured overlay.
* :class:`repro.protocols.fully_connected.FullyConnectedProtocol` — the ideal
  lower bound where every node is connected to every other node.

Perigee variants (Section 4):

* :class:`repro.protocols.perigee.vanilla.PerigeeVanillaProtocol`
* :class:`repro.protocols.perigee.ucb.PerigeeUCBProtocol`
* :class:`repro.protocols.perigee.subset.PerigeeSubsetProtocol`
"""
