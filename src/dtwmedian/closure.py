"""Metric closure of p-DTW restricted to a finite curve set.

The closure is the all-pairs shortest-path completion of the complete graph
whose edge weights are pairwise p-DTW values. Zero-weight edges between
duplicate curves are kept (the closure is a semimetric); a closure holds
every curve it is given. Both clustering routes give their final closure
one weighted point per distinct simplified curve. The bicriteria stage's
sample closures may still hold one sequence at several rows; on a dense
matrix their zero is just a zero.

``shortest_path_closure`` runs Floyd-Warshall on min(base, base^T) with a
zero diagonal, as the ``floyd_warshall`` function of the package's compiled
library (``_kernels``), whose bits are pinned to ``floyd_warshall_reference``.
The reference loops k outermost and sets d[i][j] = min(d[i][j],
d[i][k] + d[k][j]) over the whole matrix, one rounded addition and one
comparison per entry. The kernel takes the steps k in blocks of
``_BLOCK``: it builds each block's snapshot rows, the reference's row k as
it stands before step k, and then relaxes every entry of the upper
triangle (j > i) by all the block's sums in one pass, six rows at a time,
and at the end mirrors the triangle into the lower one. None of this
changes a bit:

- the input min(base, base^T) is exactly symmetric, and the reference keeps
  it so after every k: d[j][i] gets d[j][k] + d[k][i], the two summands of
  d[i][j]'s d[i][k] + d[k][j], and IEEE addition is commutative, so both
  sums round to the same value; the lower triangle is the mirror of the
  upper one throughout, and the reference's d[i][k] is its d[k][i], entry
  i of snapshot row k;
- min is exact: an entry ends at the least of its start and its n sums
  whatever the order it takes them in, so the kernel's bits are the
  reference's as long as every sum has the reference's two operands, which
  the snapshots hold; a snapshot is built from row k relaxed by the
  block's earlier snapshots, with the reference's sums again;
- an inf summand changes no entry;
- the pass's tiles of 6 rows change only the order of those exact minima:
  entry d[i][j] still takes s[q][i] + s[q][j] for each snapshot q, with
  the same two operands.

The textbook blocked order (Venkataraman, Sahni and Mukhopadhyaya, JEA
2003) is not used: it relaxes the block's rows and columns first and then
reads d[i][k] as it stands after the whole block, so its sums have other
operands. On the simplified ``gen_synthetic(300, 1, 32, 2, 0.5, 1)`` base
(ell = 4, p = 1) it changed 36 entries, by up to 2.8e-14. Either order
reads each matrix row once per block instead of once per k: at n = 1000
the matrix is 8 MB, and streaming it once per k took most of the time.

The pass over the rows is limited by loads, not arithmetic: taken one row
at a time, every row reloaded all 16 snapshot rows (128 KB at n = 1000)
for each stretch of its columns. A tile of rows i..i+5 keeps 6 x 2 vector
accumulators in registers, as a GEMM kernel does (Goto and van de Geijn,
ACM TOMS 2008): each snapshot's two vectors are loaded once and serve six
rows, and each row takes one broadcast of s[q][i]. A tile's entries left
of column i + 6, its columns after the last whole stretch, and the last
n mod 6 rows are relaxed one entry at a time. The kernel alone went from
72-77 to 42-49 ms on 1000 ``many_short`` walks simplified to 4 points
(p = 1), and from 583-628 to 346-348 ms on a random base of n = 2000
(2-core x86-64, gcc 12.2). It runs 4-lane AVX2 vectors; a host without
AVX2 runs the reference (``_kernels`` says why).

The argument needs non-negative input without NaN, so those are rejected,
and a -0.0 entry is made +0.0: the two compare equal, and which one a tie
keeps would be up to the order.

Each closure lives in one n x n buffer, closed in place by ``_close``,
the one Floyd-Warshall helper. Its three callers: ``shortest_path_closure``
on its checked, symmetrised copy of the caller's matrix;
``bicriteria._solve_on_closure`` on a fresh p-DTW matrix or its ``np.ix_``
slice, already an exactly symmetric copy; and ``build_closure``, the
final closure of both routes, where ``dtw_self`` writes the diagonal and
upper triangle of a new buffer (``dtw._self_triangle``), the kernel
closes and mirrors it, and the k-median reads it. ``build_closure`` keeps
no second matrix: a caller that wants the p-DTW matrix itself asks
``dtw.dtw_self_matrix`` for it. It checks its output once, raising unless
the minimum is >= 0: a NaN or negative input entry survives the closure
(``t < a`` is false against a NaN, and minima never rise). It needs no
+0.0 pass, as a p-DTW value is never -0.0 (a square root of +0.0, or sums
and products of non-negative terms). Against a route that symmetrised and
checked a second matrix, the one buffer on many_short's 1000 simplified
walks took 61-87 ms instead of 74-94 ms (medians of 15 calls in each of
seven alternating processes, 2-core x86-64, gcc 12.2), and a formula-size
``kl_median`` at n = 4000 (k = ell = 4, one repetition) peaked at 53 MB of
traced memory instead of 109 MB.

scipy's ``floyd_warshall`` does the same arithmetic; the tests keep it as
an independent cross-check, and the package does not import scipy.

The library is one C source built once, on first use (``_kernels`` says
how), and holds five functions: this closure, ``dtw_pairs`` for the p-DTW
values of pairs and ``dtw_self`` for the p-DTW matrix that
``build_closure`` closes (``dtw``), ``medoid_partition`` for the medoid
simplifications (``simplify``) and ``kmedian_search`` for the k-median's
local search (``kmedian``).
Its one fallback rule: when it cannot be built or loaded (a host without a
C compiler), or the host has no AVX2, each caller runs its numpy
reference; here the closure is
``floyd_warshall_reference`` on the same matrix, with the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .curves import ResourceGuardError, ValidationError, as_curve_set
from .dtw import _self_triangle

CLOSURE_SIZE_CAP = 20000
# the steps k that one pass of the compiled kernel takes at a time
_BLOCK = 16


@dataclass(frozen=True)
class MetricClosure:
    """Shortest-path closure ``dist`` of the pairwise p-DTW matrix of the
    curves ``ids``."""

    ids: tuple[str, ...]
    dist: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if self.dist.shape != (n, n):
            raise ValidationError("the closure matrix must be n x n")


def shortest_path_closure(base):
    """All-pairs shortest paths of a dense symmetric matrix of non-negative
    weights, with the bits of ``floyd_warshall_reference`` (see the module
    docstring): by the compiled kernel, or by the reference itself on a host
    where the library cannot be built. The result is exactly symmetric, and
    zero-weight edges between duplicates are kept. A NaN or negative entry
    raises ``ValidationError``."""
    base = np.asarray(base, dtype=np.float64)
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise ValidationError("closure base must be a square matrix")
    dist = np.minimum(base, base.T, order="C")
    if not (dist >= 0).all():  # a NaN compares false
        raise ValidationError("closure base entries must be non-negative, not NaN")
    dist += 0.0  # -0.0 becomes +0.0
    np.fill_diagonal(dist, 0.0)
    return _close(dist)


def _close(dist):
    """The shortest-path closure of dist, an exactly symmetric row-major
    matrix with a zero diagonal and no negative entry, NaN or -0.0: closed
    in place by the compiled ``floyd_warshall``, which reads only the
    diagonal and the upper triangle and mirrors the result, or a new
    ``floyd_warshall_reference`` of the whole matrix where the library
    cannot be built."""
    lib = _kernels.library()
    if lib is None:
        return floyd_warshall_reference(dist)
    n = dist.shape[0]
    rows = np.empty((_BLOCK, n))
    lib.floyd_warshall(dist.ctypes.data, n, rows.ctypes.data, _BLOCK)
    return dist


def _check_size(n, size_cap):
    if n < 1:
        raise ValidationError("need at least one curve")
    if n > size_cap:
        raise ResourceGuardError(f"closure of {n} curves exceeds the cap of {size_cap}")


def build_closure(curves, p=1.0, size_cap=CLOSURE_SIZE_CAP) -> MetricClosure:
    """The shortest-path closure of the p-DTW matrix of a curve set, in one
    n x n buffer: ``dtw._self_triangle`` fills its upper triangle and
    ``_close`` closes it in place. Raises ``ResourceGuardError`` past
    ``size_cap`` curves, and ``ValidationError`` if the closure holds a NaN
    or negative entry."""
    curves = as_curve_set(curves)
    _check_size(len(curves), size_cap)
    dist = _close(_self_triangle(curves, p))
    if not dist.min() >= 0:  # a NaN compares false
        raise ValidationError("closure entries must be non-negative, not NaN")
    return MetricClosure(tuple(curves.ids), dist)


def distances_from_set(base, C):
    """Minimum closure distance from every point to the index set C of a
    dense matrix of non-negative weights (edge u -> v weighs base[u, v]);
    unreachable points stay inf.

    Bellman-Ford passes from C: each pass sets dist[v] = min(dist[v],
    dist[u] + base[u, v]) over the points u whose distance the last pass
    lowered (C itself first), until no entry falls. After pass t, dist[v]
    is the least rounded left-to-right sum over the paths of at most t hops,
    because rounding is monotone; a sum of non-negative terms never falls
    when a hop is added, so the least over all paths is a least over simple
    paths and the passes end. That least sum is what Dijkstra returns, so
    the result has the bits of scipy's ``dijkstra`` with ``min_only=True``.
    A pass per hop of the longest shortest path: 2-3 passes on the
    bicriteria's closures, but n passes of up to n rows, O(n^3), in the
    worst case. A NaN or negative entry raises ``ValidationError``, as in
    ``shortest_path_closure``."""
    base = np.asarray(base, dtype=np.float64)
    if not np.all(base >= 0):
        raise ValidationError("base entries must be non-negative, not NaN")
    C = np.asarray(list(C), dtype=np.intp)
    if C.size == 0:
        raise ValidationError("C must be non-empty")
    if np.any(C < 0) or np.any(C >= base.shape[0]):
        raise ValidationError("C contains out-of-range indices")
    dist = np.full(base.shape[0], np.inf)
    dist[C] = 0.0
    lowered = np.unique(C)
    while lowered.size:
        relaxed = (dist[lowered, None] + base[lowered]).min(axis=0)
        lowered = np.flatnonzero(relaxed < dist)
        dist[lowered] = relaxed[lowered]
    return dist


def floyd_warshall_reference(base):
    """Textbook Floyd-Warshall, one whole-matrix relaxation per k: the
    reference whose bits the compiled kernel must reproduce, and the closure
    itself on a host where the kernel cannot be built."""
    dist = np.array(base, dtype=np.float64)
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist
