"""Metric-space (hypercube embedding) latency model.

Section 3 of the paper analyses topologies under a model where every node is
embedded uniformly at random in the ``d``-dimensional unit hypercube and the
point-to-point latency between two nodes is their Euclidean distance.  This
model implements that construction and is the substrate for:

* the Figure 1 illustration (random vs geometric topology in the unit square),
* the Theorem 1 / Theorem 2 empirical validations in :mod:`repro.theory`,
* experiments that want a purely synthetic, geography-free latency surface.

Distances are scaled by ``scale_ms`` so they can be interpreted as
milliseconds when plugged into the propagation engines.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial.distance import pdist, squareform

from repro.latency.base import LatencyModel


class MetricSpaceLatencyModel(LatencyModel):
    """Latencies equal to (scaled) Euclidean distances in ``[0, 1]^d``.

    Parameters
    ----------
    num_nodes:
        Number of embedded points.
    dimension:
        Hypercube dimension ``d`` (the paper uses 2 for illustration and
        general ``d >= 2`` in the analysis).
    rng:
        Random generator used to draw the embedding.
    scale_ms:
        Multiplier converting unit-hypercube distance into milliseconds.  The
        default of 150 ms maps the hypercube diameter onto realistic
        inter-continental latencies.
    positions:
        Optional explicit positions, shape ``(num_nodes, dimension)``.  When
        provided, ``rng`` is not used for the embedding.
    """

    def __init__(
        self,
        num_nodes: int,
        dimension: int = 2,
        rng: np.random.Generator | None = None,
        scale_ms: float = 150.0,
        positions: np.ndarray | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("num_nodes must be positive")
        if dimension < 1:
            raise ValueError("dimension must be positive")
        if scale_ms <= 0:
            raise ValueError("scale_ms must be positive")
        if positions is not None:
            positions = np.asarray(positions, dtype=float)
            if positions.shape != (num_nodes, dimension):
                raise ValueError(
                    "positions must have shape (num_nodes, dimension)"
                )
            if np.any(positions < 0.0) or np.any(positions > 1.0):
                raise ValueError("positions must lie in the unit hypercube")
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            positions = rng.uniform(0.0, 1.0, size=(num_nodes, dimension))
        self._positions = positions
        self._scale_ms = float(scale_ms)
        if num_nodes == 1:
            self._matrix = np.zeros((1, 1), dtype=float)
        else:
            self._matrix = squareform(pdist(positions)) * self._scale_ms
        self._matrix.setflags(write=False)
        self.validate()

    @property
    def num_nodes(self) -> int:
        return int(self._positions.shape[0])

    @property
    def dimension(self) -> int:
        """Dimension of the hypercube embedding."""
        return int(self._positions.shape[1])

    @property
    def positions(self) -> np.ndarray:
        """Embedding coordinates, shape ``(num_nodes, dimension)``."""
        return self._positions.copy()

    @property
    def scale_ms(self) -> float:
        """Milliseconds per unit of Euclidean distance."""
        return self._scale_ms

    def euclidean_distance(self, u: int, v: int) -> float:
        """Unscaled Euclidean distance between the embedded points."""
        return float(self._matrix[u, v] / self._scale_ms)

    def matrix_view(self) -> np.ndarray:
        return self._matrix

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return self._matrix[u, v]

    def geometric_threshold(self, constant: float = 2.0) -> float:
        """The connectivity threshold ``r = Θ((log n / n)^{1/d})`` of Theorem 2.

        Returns the *unscaled* (unit hypercube) threshold; multiply by
        :attr:`scale_ms` to compare against latencies.
        """
        n = self.num_nodes
        if n < 2:
            raise ValueError("geometric threshold needs at least two nodes")
        return float(constant * (np.log(n) / n) ** (1.0 / self.dimension))
