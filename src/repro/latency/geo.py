"""Geography-derived link latencies (iPlane substitute).

The paper sets the propagation latency between two nodes according to their
geographic regions using the iPlane measurement dataset (Section 5.1).  This
model reproduces the construction with a synthetic inter-region latency matrix
(:mod:`repro.datasets.regions`) plus multiplicative log-normal per-link jitter,
so different node pairs in the same pair of regions do not all share the exact
same latency — mirroring the spread present in real measurements and giving
the Figure 5 histograms their width.

Two memory backends are available:

* ``memory="dense"`` (the default) precomputes the full ``N x N`` matrix.
  It is bit-for-bit stable across releases (the jitter is drawn from the
  caller's RNG exactly as it always was) but costs ``8 N^2`` bytes — about
  3.2 GB at ``N = 20000`` — which is the memory wall for large networks.
* ``memory="sparse"`` stores only the node regions and recomputes every
  pair's jitter on demand from a counter-based stream keyed on
  ``(seed, min(u, v), max(u, v))``.  Lookups are deterministic, symmetric,
  identical across processes and workers, and a :meth:`pairwise` gather of
  ``E`` edges touches ``O(E)`` memory — no ``N^2`` anything.  The jitter
  marginal distribution matches the dense backend (same log-normal), but the
  per-pair draws come from a different stream, so the two backends produce
  statistically equivalent — not bit-identical — environments.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtri

from repro.core.node import Node
from repro.datasets.regions import REGION_INDEX, region_latency_matrix
from repro.latency.base import LatencyModel

#: Default relative standard deviation of per-link jitter.
#:
#: Measured inter-host latencies (iPlane, RIPE Atlas) are strongly
#: heavy-tailed even between fixed region pairs: routes through overloaded or
#: circuitous paths are several times slower than the best route between the
#: same two regions.  The multiplicative log-normal spread used here keeps the
#: region-pair medians of :mod:`repro.datasets.regions` while reproducing that
#: skew — which is exactly the heterogeneity Perigee exploits and the random
#: topology suffers from (Section 3.1).
DEFAULT_JITTER = 0.55

#: Lower bound on any link latency, in milliseconds.  Even co-located hosts
#: observe some propagation plus protocol overhead.
MIN_LINK_LATENCY_MS = 2.0

#: Supported memory backends.
MEMORY_BACKENDS = ("dense", "sparse")

# SplitMix64 / xxHash-style 64-bit mixing constants for the counter-based
# pair stream of the sparse backend.
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_PAIR_SALT = np.uint64(0xC2B2AE3D27D4EB4F)


def _mix64(x: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: a bijective avalanche mix on uint64 lanes."""
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def pair_uniforms(seed: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Deterministic uniforms in (0, 1), one per unordered node pair.

    The stream is keyed on ``(seed, min(u, v), max(u, v))`` so the value is
    symmetric in ``(u, v)`` and reproducible from nothing but the seed —
    every process, worker, or chunked evaluation pass that asks for the same
    pair gets the same draw without any shared state.
    """
    u = np.asarray(u, dtype=np.uint64)
    v = np.asarray(v, dtype=np.uint64)
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    with np.errstate(over="ignore"):
        x = _mix64(np.uint64(seed) * _GAMMA + lo * _MIX1 + _PAIR_SALT)
        x = _mix64(x ^ (hi * _GAMMA + _PAIR_SALT))
    # 53 mantissa bits, offset by half a ULP so 0 and 1 are never returned.
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0**-53)


class GeographicLatencyModel(LatencyModel):
    """Latency model driven by node regions and an inter-region matrix.

    Parameters
    ----------
    nodes:
        Node population; only each node's ``region`` is used.
    rng:
        Random generator used to draw per-link jitter (dense backend) or the
        64-bit pair-stream seed (sparse backend).
    jitter:
        Relative standard deviation of the multiplicative log-normal jitter
        applied independently to every link.  ``0`` disables jitter.
    region_matrix:
        Optional override of the 7x7 mean latency matrix (in
        :data:`repro.datasets.regions.REGIONS` order).
    memory:
        ``"dense"`` precomputes the ``N x N`` matrix (default, bit-for-bit
        stable); ``"sparse"`` recomputes pairs on demand in ``O(N)`` memory
        (see the module docstring for the contract).
    """

    def __init__(
        self,
        nodes: list[Node] | tuple[Node, ...],
        rng: np.random.Generator,
        jitter: float = DEFAULT_JITTER,
        region_matrix: np.ndarray | None = None,
        memory: str = "dense",
    ) -> None:
        if jitter < 0:
            raise ValueError("jitter must be non-negative")
        if memory not in MEMORY_BACKENDS:
            raise ValueError(
                f"memory must be one of {MEMORY_BACKENDS}, got {memory!r}"
            )
        self._nodes = tuple(nodes)
        if not self._nodes:
            raise ValueError("nodes must be non-empty")
        base = region_latency_matrix() if region_matrix is None else np.asarray(
            region_matrix, dtype=float
        )
        if base.shape != (len(REGION_INDEX), len(REGION_INDEX)):
            raise ValueError("region_matrix must be 7x7 in REGIONS order")
        self._memory = memory
        self._region_ids = np.array(
            [REGION_INDEX[node.region] for node in self._nodes], dtype=np.int64
        )
        self._sigma = (
            float(np.sqrt(np.log(1.0 + jitter**2))) if jitter > 0 else 0.0
        )
        if memory == "dense":
            self._base = base
            self._matrix = self._build_dense(base, rng)
            self._matrix.setflags(write=False)
            self.validate()
        else:
            # The dense path symmetrises the final matrix; the on-demand path
            # symmetrises the means up front so every gather is symmetric by
            # construction.
            self._base = (base + base.T) / 2.0
            self._base.setflags(write=False)
            self._matrix = None
            self._pair_seed = int(rng.integers(0, 2**63, dtype=np.uint64))
            self.validate()

    # ------------------------------------------------------------------ #
    # Dense construction
    # ------------------------------------------------------------------ #
    def _build_dense(
        self, base: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Build the dense matrix with a single ``N x N`` allocation.

        Row-wise in-place passes replace the old ``np.triu`` symmetrisation
        and the ``means * noise`` / ``(M + M.T) / 2`` temporaries (each a
        full extra ``N x N`` array), roughly halving peak construction
        memory while producing bit-identical results: the RNG consumption
        and the per-element arithmetic are unchanged.
        """
        n = len(self._nodes)
        region_ids = self._region_ids
        if self._sigma > 0:
            matrix = rng.lognormal(
                mean=-self._sigma**2 / 2.0, sigma=self._sigma, size=(n, n)
            )
            # Symmetrise the jitter so latency(u, v) == latency(v, u):
            # mirror the strict upper triangle into the lower, in place.
            for i in range(n - 1):
                matrix[i + 1 :, i] = matrix[i, i + 1 :]
            np.fill_diagonal(matrix, 1.0)
        else:
            matrix = np.ones((n, n), dtype=float)
        for i in range(n):
            matrix[i] *= base[region_ids[i], region_ids]
        np.maximum(matrix, MIN_LINK_LATENCY_MS, out=matrix)
        np.fill_diagonal(matrix, 0.0)
        # (M + M.T) / 2, computed per row pair without a second N x N array.
        # With a symmetric region matrix this is the identity bit-for-bit;
        # with an asymmetric override it reproduces the legacy averaging.
        for i in range(n - 1):
            upper = matrix[i, i + 1 :]
            lower = matrix[i + 1 :, i]
            averaged = (upper + lower) / 2.0
            matrix[i, i + 1 :] = averaged
            matrix[i + 1 :, i] = averaged
        return matrix

    # ------------------------------------------------------------------ #
    # Shared interface
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def nodes(self) -> tuple[Node, ...]:
        """The node population the model was built from."""
        return self._nodes

    @property
    def memory(self) -> str:
        """The active memory backend, ``"dense"`` or ``"sparse"``."""
        return self._memory

    @property
    def pair_seed(self) -> int | None:
        """Seed of the sparse backend's pair stream (``None`` when dense)."""
        return None if self._memory == "dense" else self._pair_seed

    def pairwise(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if u.shape != v.shape or u.ndim != 1:
            raise ValueError("u and v must be 1-D arrays of equal length")
        if self._matrix is not None:
            return self._matrix[u, v]
        values = self._base[self._region_ids[u], self._region_ids[v]]
        if self._sigma > 0:
            uniforms = pair_uniforms(self._pair_seed, u, v)
            noise = np.exp(
                -self._sigma**2 / 2.0 + self._sigma * ndtri(uniforms)
            )
            values = values * noise
        values = np.maximum(values, MIN_LINK_LATENCY_MS)
        values[u == v] = 0.0
        return values

    def matrix_view(self) -> np.ndarray:
        if self._matrix is None:
            return super().matrix_view()
        return self._matrix

    def validate(self) -> None:
        """Invariant checks; sampled (O(N)) under the sparse backend."""
        if self._matrix is not None:
            super().validate()
            return
        n = self.num_nodes
        check = np.random.default_rng(0)
        u = check.integers(0, n, size=min(4 * n, 4096))
        v = check.integers(0, n, size=u.size)
        forward = self.pairwise(u, v)
        backward = self.pairwise(v, u)
        if not np.array_equal(forward, backward):
            raise ValueError("latency pairs must be symmetric")
        off_diagonal = forward[u != v]
        if off_diagonal.size and off_diagonal.min() < MIN_LINK_LATENCY_MS:
            raise ValueError("latencies must respect the minimum link latency")
        diag = self.pairwise(u, u)
        if not np.allclose(diag, 0.0):
            raise ValueError("latency matrix diagonal must be zero")
