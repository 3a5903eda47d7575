"""Latency model interface.

A latency model answers one question: what is the constant one-way latency
``δ(u, v)`` (in milliseconds) of sending a block between nodes ``u`` and ``v``
if they are directly connected?

Every model implements that rule once, as the **pairwise gather**
:meth:`LatencyModel.pairwise` — vectorised ``δ(u_i, v_i)`` for arrays of node
pairs.  It is the contract the propagation engine consumes: a round over an
overlay with ``E`` edges only ever needs ``E`` latency values, so models are
free to compute pairs on demand instead of storing ``N x N`` floats (see the
``memory="sparse"`` backend of :class:`repro.latency.geo.GeographicLatencyModel`).

The other access patterns are derived from it on the base class:

* :meth:`LatencyModel.latency` — one pair, a one-element gather;
* :meth:`LatencyModel.matrix_view` — the read-only dense matrix, gathered row
  by row.  Models that store a matrix override it to return their storage;
  on every other model each call materialises ``N^2`` floats, so it does not
  belong on an ``N ~ 20k`` hot path;
* :meth:`LatencyModel.as_matrix` — a private, writable copy of the dense
  matrix.
"""

from __future__ import annotations

import abc

import numpy as np


class LatencyModel(abc.ABC):
    """Abstract interface shared by all latency models."""

    @property
    @abc.abstractmethod
    def num_nodes(self) -> int:
        """Number of nodes the model covers."""

    @abc.abstractmethod
    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorised gather ``δ(u_i, v_i)`` for parallel id arrays.

        ``u`` and ``v`` are integer arrays (or sequences) of equal length;
        broadcasting is not applied.  Returns a float array of the same
        length.  This is the model's one latency rule: the engine's per-edge
        gathers and every other accessor read it.
        """

    def latency(self, u: int, v: int) -> float:
        """One-way latency in milliseconds between nodes ``u`` and ``v``."""
        pair = self.pairwise(
            np.array([u], dtype=np.int64), np.array([v], dtype=np.int64)
        )
        return float(pair[0])

    def matrix_view(self) -> np.ndarray:
        """Read-only dense latency matrix (``writeable`` is False).

        Matrix-backed models override this to return their storage without
        copying.  The base implementation gathers the matrix row by row from
        :meth:`pairwise`: *every call* costs O(N^2) work and memory, so hold
        on to the result instead of calling this in a loop.
        """
        n = self.num_nodes
        matrix = np.empty((n, n), dtype=float)
        cols = np.arange(n, dtype=np.int64)
        for i in range(n):
            matrix[i] = self.pairwise(np.full(n, i, dtype=np.int64), cols)
        matrix.setflags(write=False)
        return matrix

    def as_matrix(self) -> np.ndarray:
        """Dense symmetric latency matrix with a zero diagonal (a copy)."""
        return self.matrix_view().copy()

    def validate(self) -> None:
        """Check basic invariants of the produced matrix.

        Raises ``ValueError`` when the matrix is not square, not symmetric,
        has a non-zero diagonal or contains negative entries.
        """
        matrix = self.matrix_view()
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("latency matrix must be square")
        if matrix.shape[0] != self.num_nodes:
            raise ValueError("latency matrix size must match num_nodes")
        if not np.allclose(matrix, matrix.T):
            raise ValueError("latency matrix must be symmetric")
        if not np.allclose(np.diag(matrix), 0.0):
            raise ValueError("latency matrix diagonal must be zero")
        if np.any(matrix < 0):
            raise ValueError("latencies must be non-negative")


class MatrixLatencyModel(LatencyModel):
    """Latency model backed by an explicit matrix.

    Useful for tests and for custom scenarios that bring their own
    measurements.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("matrix must be square")
        self._matrix = matrix.copy()
        # Force an exactly-zero diagonal and exact symmetry so downstream
        # shortest-path computations never see tiny negative asymmetries.
        np.fill_diagonal(self._matrix, 0.0)
        self._matrix = (self._matrix + self._matrix.T) / 2.0
        self._matrix.setflags(write=False)
        self.validate()

    @property
    def num_nodes(self) -> int:
        return int(self._matrix.shape[0])

    def matrix_view(self) -> np.ndarray:
        return self._matrix

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        return self._matrix[u, v]

    @classmethod
    def constant(cls, num_nodes: int, latency_ms: float) -> "MatrixLatencyModel":
        """All pairs share the same latency — a handy degenerate test model."""
        if latency_ms < 0:
            raise ValueError("latency_ms must be non-negative")
        matrix = np.full((num_nodes, num_nodes), latency_ms, dtype=float)
        np.fill_diagonal(matrix, 0.0)
        return cls(matrix)
