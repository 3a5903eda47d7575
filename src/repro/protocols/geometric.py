"""Geometric (threshold-latency) graph (Section 3.3).

Two nodes are connected whenever the point-to-point latency between them is
below a threshold ``r``.  Under the hypercube embedding model, Theorem 2 shows
that with ``r = Θ((log n / n)^{1/d})`` the resulting graph has constant
stretch: shortest-path latency is within a constant factor of the direct
point-to-point latency.  The geometric graph therefore serves as the
"theoretical optimum" family the learned Perigee topology is compared
against.

Because the true degree of a threshold graph is unbounded, this implementation
offers two flavours:

* **threshold mode** — connect to every peer within the latency threshold
  (degree-unbounded, matching the theory); and
* **nearest-neighbor mode** (default for the simulator) — each node uses its
  outgoing budget on its ``dout`` lowest-latency peers, the natural
  degree-bounded analogue used when plugging the construction into the
  Bitcoin-like connection limits of Section 2.
"""

from __future__ import annotations

import numpy as np

from repro.core.network import P2PNetwork
from repro.protocols.base import NeighborSelectionProtocol, ProtocolContext


class GeometricProtocol(NeighborSelectionProtocol):
    """Connect to the closest peers in latency space.

    Parameters
    ----------
    mode:
        ``"nearest"`` (default) — each node connects its outgoing budget to
        its lowest-latency peers; ``"threshold"`` — connect to every peer with
        latency below ``threshold_ms`` (outgoing budget permitting, processed
        in increasing latency order).
    threshold_ms:
        Latency threshold used in ``"threshold"`` mode.  When ``None``, the
        threshold is chosen so the *average* degree roughly matches the
        outgoing budget.
    """

    name = "geometric"

    def __init__(
        self, mode: str = "nearest", threshold_ms: float | None = None
    ) -> None:
        if mode not in ("nearest", "threshold"):
            raise ValueError("mode must be 'nearest' or 'threshold'")
        if threshold_ms is not None and threshold_ms <= 0:
            raise ValueError("threshold_ms must be positive")
        self._mode = mode
        self._threshold_ms = threshold_ms

    @property
    def mode(self) -> str:
        return self._mode

    def build_topology(
        self,
        context: ProtocolContext,
        network: P2PNetwork,
        rng: np.random.Generator,
    ) -> None:
        matrix = context.latency.matrix_view()
        order = rng.permutation(network.num_nodes)
        if self._mode == "nearest":
            self._build_nearest(network, matrix, order)
        else:
            threshold = (
                self._threshold_ms
                if self._threshold_ms is not None
                else self._auto_threshold(matrix, network.out_degree)
            )
            self._build_threshold(network, matrix, order, threshold)
        # Any still-unfilled slots (e.g. all close peers declined because they
        # ran out of incoming capacity) fall back to random peers so the graph
        # stays connected.
        network.redial(order, rng)

    @staticmethod
    def _build_nearest(
        network: P2PNetwork, matrix: np.ndarray, order: np.ndarray
    ) -> None:
        for raw_id in order:
            node_id = int(raw_id)
            closest = np.argsort(matrix[node_id], kind="stable")
            for peer in closest:
                peer = int(peer)
                if peer == node_id:
                    continue
                if network.outgoing_slots_free(node_id) <= 0:
                    break
                network.connect(node_id, peer)

    @staticmethod
    def _build_threshold(
        network: P2PNetwork,
        matrix: np.ndarray,
        order: np.ndarray,
        threshold_ms: float,
    ) -> None:
        for raw_id in order:
            node_id = int(raw_id)
            candidates = np.where(matrix[node_id] <= threshold_ms)[0]
            candidates = candidates[candidates != node_id]
            candidates = candidates[np.argsort(matrix[node_id, candidates], kind="stable")]
            for peer in candidates:
                if network.outgoing_slots_free(node_id) <= 0:
                    break
                network.connect(node_id, int(peer))

    @staticmethod
    def _auto_threshold(matrix: np.ndarray, out_degree: int) -> float:
        """Threshold giving each node about ``out_degree`` in-range peers."""
        n = matrix.shape[0]
        if n <= 1:
            return float("inf")
        k = min(out_degree + 1, n - 1)
        kth_smallest = np.partition(matrix, k, axis=1)[:, k]
        return float(np.median(kth_smallest))

    def describe(self) -> dict[str, object]:
        info = super().describe()
        info["mode"] = self._mode
        info["threshold_ms"] = self._threshold_ms
        return info
