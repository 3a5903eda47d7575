"""Topology diagnostics (Figure 5 and Section 5.5).

Figure 5 of the paper plots histograms of the per-edge link latencies of the
overlays produced by the different algorithms under uniform hash power.  The
distributions are bimodal — a low mode of intra-continental edges and a high
mode of inter-continental edges — and Perigee-Subset concentrates most of its
edges in the low mode, which is the structural explanation for its delay
advantage.  This module computes those histograms and related structural
summaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from repro.core.network import P2PNetwork
from repro.datasets.regions import intra_continental_threshold_ms
from repro.latency.base import LatencyModel


def edge_latency_values(
    network: P2PNetwork, latency: LatencyModel
) -> np.ndarray:
    """Latency of every undirected communication edge in the overlay."""
    edges = network.to_numpy_edges()
    if edges.shape[0] == 0:
        return np.zeros(0, dtype=float)
    return latency.pairwise(edges[:, 0], edges[:, 1])


@dataclass(frozen=True)
class EdgeLatencyHistogram:
    """Histogram of overlay edge latencies for one protocol.

    Attributes
    ----------
    protocol:
        Protocol name.
    bin_edges_ms:
        Histogram bin edges (length ``num_bins + 1``).
    counts:
        Edge counts per bin.
    mean_ms / median_ms:
        Summary statistics of the underlying latency values.
    low_mode_fraction:
        Fraction of edges below the intra-continental threshold — the paper's
        qualitative reading of Figure 5 ("the latencies of bulk of the edges
        are populated around the lower mode" for Perigee-Subset).
    """

    protocol: str
    bin_edges_ms: np.ndarray
    counts: np.ndarray
    mean_ms: float
    median_ms: float
    low_mode_fraction: float

    @property
    def num_edges(self) -> int:
        return int(self.counts.sum())


def edge_latency_histogram(
    network: P2PNetwork,
    latency: LatencyModel,
    protocol: str,
    num_bins: int = 30,
    max_latency_ms: float | None = None,
) -> EdgeLatencyHistogram:
    """Compute the Figure 5 histogram for one overlay."""
    if num_bins < 1:
        raise ValueError("num_bins must be positive")
    values = edge_latency_values(network, latency)
    if values.size == 0:
        edges = np.linspace(0.0, 1.0, num_bins + 1)
        return EdgeLatencyHistogram(
            protocol=protocol,
            bin_edges_ms=edges,
            counts=np.zeros(num_bins, dtype=int),
            mean_ms=float("nan"),
            median_ms=float("nan"),
            low_mode_fraction=float("nan"),
        )
    upper = float(max_latency_ms) if max_latency_ms is not None else float(values.max())
    upper = max(upper, 1e-9)
    counts, bin_edges = np.histogram(values, bins=num_bins, range=(0.0, upper))
    threshold = intra_continental_threshold_ms()
    return EdgeLatencyHistogram(
        protocol=protocol,
        bin_edges_ms=bin_edges,
        counts=counts,
        mean_ms=float(values.mean()),
        median_ms=float(np.median(values)),
        low_mode_fraction=float((values < threshold).mean()),
    )


def intra_continental_fraction(
    network: P2PNetwork, regions: list[str]
) -> float:
    """Fraction of overlay edges whose endpoints share a region."""
    edges = network.edge_list()
    if not edges:
        return float("nan")
    same = sum(1 for u, v in edges if regions[u] == regions[v])
    return same / len(edges)


def topology_summary(
    network: P2PNetwork,
    latency: LatencyModel,
    regions: list[str] | None = None,
) -> dict[str, float]:
    """Bundle of structural statistics used by reports and ablations.

    Everything derives from a single edge-array extraction: degrees come
    from a ``bincount`` over the unique undirected edge list (the number of
    distinct communication neighbors) and connectivity from
    :func:`connected_components` on the sparse adjacency — the flight
    recorder calls this every round, so the summary must not cost more than
    a few edge-array passes.
    """
    edges = network.to_numpy_edges()
    num_nodes = network.num_nodes
    if edges.shape[0]:
        values = latency.pairwise(edges[:, 0], edges[:, 1])
        degrees = np.bincount(edges.ravel(), minlength=num_nodes).astype(float)
        adjacency = csr_matrix(
            (np.ones(edges.shape[0], dtype=np.int8), (edges[:, 0], edges[:, 1])),
            shape=(num_nodes, num_nodes),
        )
        components = connected_components(
            adjacency, directed=False, return_labels=False
        )
        connected = components == 1
    else:
        values = np.zeros(0, dtype=float)
        degrees = np.zeros(num_nodes, dtype=float)
        connected = num_nodes <= 1
    summary: dict[str, float] = {
        "num_edges": float(edges.shape[0]),
        "mean_degree": float(degrees.mean()) if degrees.size else float("nan"),
        "max_degree": float(degrees.max()) if degrees.size else float("nan"),
        "min_degree": float(degrees.min()) if degrees.size else float("nan"),
        "mean_edge_latency_ms": float(values.mean()) if values.size else float("nan"),
        "median_edge_latency_ms": (
            float(np.median(values)) if values.size else float("nan")
        ),
        "connected": float(connected),
    }
    if regions is not None:
        summary["intra_continental_fraction"] = intra_continental_fraction(
            network, regions
        )
    threshold = intra_continental_threshold_ms()
    if values.size:
        summary["low_latency_edge_fraction"] = float((values < threshold).mean())
    else:
        summary["low_latency_edge_fraction"] = float("nan")
    return summary
