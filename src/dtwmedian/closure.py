"""Metric closure of p-DTW restricted to a finite curve set.

The closure is the all-pairs shortest-path completion of the complete graph
whose edge weights are pairwise p-DTW values. Zero-weight edges between
duplicate curves are kept (the closure is a semimetric); scipy's CSR
representation preserves them as explicit zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import csgraph_from_dense, dijkstra

from .curves import CurveSet, ResourceGuardError, ValidationError
from .dtw import dtw_self_matrix

CLOSURE_SIZE_CAP = 20000


@dataclass(frozen=True)
class MetricClosure:
    """Shortest-path closure ``dist`` over the pairwise p-DTW matrix ``base``."""

    ids: tuple[str, ...]
    dist: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if self.dist.shape != (n, n) or self.base.shape != (n, n):
            raise ValidationError("closure matrices must be n x n")

    def __len__(self):
        return len(self.ids)


def _graph(base):
    return csgraph_from_dense(base, null_value=np.inf)


def shortest_path_closure(base):
    """All-pairs shortest paths of a dense symmetric weight matrix, by one
    Dijkstra run per source."""
    dist = dijkstra(_graph(base), directed=True)
    return np.minimum(dist, dist.T)  # exact symmetry despite float ordering


def build_closure(curves, p=1.0, size_cap=CLOSURE_SIZE_CAP) -> MetricClosure:
    """Pairwise p-DTW matrix plus its shortest-path closure for a curve set."""
    curve_list = list(curves)
    n = len(curve_list)
    if n < 1:
        raise ValidationError("need at least one curve")
    if n > size_cap:
        raise ResourceGuardError(f"closure of {n} curves exceeds the cap of {size_cap}")
    base = dtw_self_matrix(curve_list, p)
    dist = shortest_path_closure(base) if n > 1 else np.zeros((1, 1))
    ids = tuple(c.id for c in curve_list)
    return MetricClosure(ids, dist, base)


def distances_from_set(base, C):
    """Minimum closure distance from every point to the index set C of a
    dense base-weight matrix, via one multi-source Dijkstra run (a
    zero-weight virtual source attached to C)."""
    C = np.asarray(list(C), dtype=np.intp)
    if C.size == 0:
        raise ValidationError("C must be non-empty")
    if np.any(C < 0) or np.any(C >= base.shape[0]):
        raise ValidationError("C contains out-of-range indices")
    if base.shape[0] == 1:
        return np.zeros(1)
    return dijkstra(_graph(base), directed=True, indices=C, min_only=True)


def floyd_warshall_reference(base):
    """Textbook Floyd-Warshall; independent reference for the Dijkstra route."""
    dist = np.array(base, dtype=np.float64)
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist
