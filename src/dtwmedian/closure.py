"""Metric closure of p-DTW restricted to a finite curve set.

The closure is the all-pairs shortest-path completion of the complete graph
whose edge weights are pairwise p-DTW values. Zero-weight edges between
duplicate curves are kept (the closure is a semimetric). The exact route,
``cluster_via_closure``, collapses duplicates before it builds a closure:
each distinct curve is one point, weighted by its number of inputs. Other
closures (bicriteria samples, coresets) may still hold one sequence under
several ids; on a dense matrix their zero is just a zero.

``shortest_path_closure`` runs Floyd-Warshall on min(base, base^T) with a
zero diagonal, as the ``floyd_warshall`` function of the package's compiled
library (``_kernels``), whose bits are pinned to ``floyd_warshall_reference``.
Both loop k outermost and set d[i][j] = min(d[i][j], d[i][k] + d[k][j]),
one rounded addition and one comparison per entry. The reference relaxes
the whole matrix per k. The kernel updates in place, row by row, and only
the upper triangle (j > i); it skips i = k and the rows whose d[i][k] is
inf, and mirrors the triangle into the lower one at the end. None of this
changes a bit:

- the input min(base, base^T) is exactly symmetric, and the reference keeps
  it so after every k: d[j][i] gets d[j][k] + d[k][i], the two summands of
  d[i][j]'s d[i][k] + d[k][j], and IEEE addition is commutative, so both
  sums round to the same value; the lower triangle is the mirror of the
  upper one throughout;
- with non-negative weights, row k and column k do not change in step k,
  so the kernel may read d[i][k] as d[k][i] from row k (refreshed from
  column k at the start of the step) while it relaxes the other rows;
- an inf d[i][k] changes no entry.

scipy's ``floyd_warshall`` does the same arithmetic; the tests keep it as
an independent cross-check, and the package does not import scipy.

The library is one C source built once, on first use (``_kernels`` says
how), and holds four functions: this closure, ``dtw_pairs`` for the p-DTW
values (``dtw``), ``medoid_partition`` for the medoid simplifications
(``simplify``) and ``swap_costs`` for the k-median's swaps (``kmedian``).
Its one fallback rule: when it cannot be built or loaded (a host without a
C compiler), each caller runs its numpy reference; here the closure is
``floyd_warshall_reference`` on the same matrix, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .curves import ResourceGuardError, ValidationError
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


def shortest_path_closure(base):
    """All-pairs shortest paths of a dense symmetric matrix of non-negative
    weights, with the bits of ``floyd_warshall_reference`` (see the module
    docstring): by the compiled kernel, or by the reference itself on a host
    where the library cannot be built. The result is exactly symmetric, and
    zero-weight edges between duplicates are kept."""
    base = np.asarray(base, dtype=np.float64)
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise ValidationError("closure base must be a square matrix")
    dist = np.minimum(base, base.T, order="C")
    np.fill_diagonal(dist, 0.0)
    lib = _kernels.library()
    if lib is None:
        return floyd_warshall_reference(dist)
    lib.floyd_warshall(dist.ctypes.data, dist.shape[0])
    return dist


def build_closure(curves, p=1.0, size_cap=CLOSURE_SIZE_CAP) -> MetricClosure:
    """Pairwise p-DTW matrix plus its shortest-path closure for a curve set."""
    curve_list = list(curves)
    n = len(curve_list)
    if n < 1:
        raise ValidationError("need at least one curve")
    if n > size_cap:
        raise ResourceGuardError(f"closure of {n} curves exceeds the cap of {size_cap}")
    base = dtw_self_matrix(curve_list, p)
    return MetricClosure(tuple(c.id for c in curve_list), shortest_path_closure(base), base)


def distances_from_set(base, C):
    """Minimum closure distance from every point to the index set C of a
    dense matrix of non-negative weights (edge u -> v weighs base[u, v]), by
    one multi-source Dijkstra run; unreachable points stay inf.

    Every point is settled once, at its final value, so dist[v] is the
    minimum over the settled u of the rounded sum dist[u] + base[u, v],
    whatever the order among ties: the bits of scipy's ``dijkstra`` with
    ``min_only=True``."""
    base = np.asarray(base, dtype=np.float64)
    C = np.asarray(list(C), dtype=np.intp)
    if C.size == 0:
        raise ValidationError("C must be non-empty")
    if np.any(C < 0) or np.any(C >= base.shape[0]):
        raise ValidationError("C contains out-of-range indices")
    dist = np.full(base.shape[0], np.inf)
    dist[C] = 0.0
    settled = np.zeros(base.shape[0], dtype=bool)
    while True:
        unsettled = np.where(settled, np.inf, dist)
        u = int(np.argmin(unsettled))
        if unsettled[u] == np.inf:
            return dist
        settled[u] = True
        np.minimum(dist, dist[u] + base[u], out=dist)


def floyd_warshall_reference(base):
    """Textbook Floyd-Warshall, one whole-matrix relaxation per k: the
    reference whose bits the compiled kernel must reproduce, and the closure
    itself on a host where the kernel cannot be built."""
    dist = np.array(base, dtype=np.float64)
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist
