"""Adversarial and incentive analyses discussed (but not evaluated) in the paper.

Section 6 of the paper raises two behavioural questions this subpackage makes
measurable:

* **Free-riding / protocol deviation** (:mod:`repro.security.freeride`) —
  Perigee "naturally incentivizes nodes to follow protocol": a node that stops
  relaying blocks is disconnected by its Perigee neighbors and ends up
  receiving blocks later itself.
* **Eclipse attacks** (:mod:`repro.security.eclipse`) — an adversary can try
  to dominate a peer's neighborhood by delivering blocks slightly earlier than
  honest nodes; Perigee's random exploration connections provide partial
  mitigation.
"""
