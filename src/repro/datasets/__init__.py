"""Synthetic datasets replacing the paper's external data sources.

The paper samples 1000 nodes from a public Bitnodes snapshot and assigns link
latencies from the iPlane measurement dataset.  Neither dataset ships with
this reproduction (no network access, and the original snapshots are not
archived), so this subpackage synthesizes equivalent populations:

* :mod:`repro.datasets.regions` — the seven geographic regions used by the
  paper and an inter-region round-trip-time matrix in the ranges reported by
  public latency measurement studies.
* :mod:`repro.datasets.bitnodes` — a node population generator with a regional
  mix matching public Bitnodes snapshots.
* :mod:`repro.datasets.hashpower` — the hash power distributions used in
  Sections 5.2 and 5.4.
"""
