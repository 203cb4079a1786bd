"""Exact p-DTW, a brute-force oracle, and the quantized approximate distance
with its ball-membership predicate, all computed by one dynamic program.

Traversal index pairs are 0-based, from (0, 0) to (m-1, l-1) with steps in
{(1,0), (0,1), (1,1)}. The numpy kernel ``_accumulate`` works on a
batch-last (m+1, l+1, n) table for n pairs of complexities m and l,
pointwise costs in its interior, and accumulates one anti-diagonal of all n
pairs per numpy step. ``dtw`` walks its traversal back from the table and
``ball_membership`` runs the kernel on quantized costs. The all-pairs
matrices evaluate every pair they are given; collapsing equal point
sequences is left to the clustering entry points (``distinct_curves``).

The batched functions take curve sets (``curves.CurveSet``): all points
in one buffer, with each curve's offset and length, as the compiled loops
read them, and a list of curves is packed once on the way in. Each has one
public function: ``dtw_matrix`` for a cross matrix, which reads its two
sets where they lie, ``assign_nearest`` (its argmin), ``dtw_aligned`` for
aligned pairs and ``dtw_self_matrix`` for a self matrix. The clustering
entry points select the curves they need from their sets by index and
call these functions, so a subset costs no copy of points.

Every batched value but the self matrix comes from ``_pair_values``.
It runs ``dtw_pairs``, one of the five functions of the package's compiled
library (``_kernels``; the others are ``dtw_self`` for the self matrix, the
closure's ``floyd_warshall``, the simplification's ``medoid_partition``
and the k-median's ``kmedian_search``), on the points, offsets and lengths
of the row set and of the column set. That loop fills each pair's DP
row by row, in O(l) memory. It takes consecutive pairs of one shape (m, l) four
at a time, one pair per lane of an AVX2 vector, and fills the lanes of a
shorter run with copies of its last pair; each lane does the numpy
reference's operations in its order. Pairs of several shapes reach it
sorted by shape, so curves of mixed lengths fill the lanes too.
``_self_triangle`` hands ``dtw_self`` the offsets and lengths of its set,
gathered where the set is a selection, and ``dtw_self`` generates the
pairs (i, j > i) itself and runs them through the same lanes, in groups of
columns of one length that it interleaves once per call. It fills the
diagonal and the upper triangle, which the closure closes in place;
``dtw_self_matrix`` copies that triangle into the lower one (the compiled
``mirror``). The library's one fallback rule: where it cannot be built,
or the host has no AVX2, each caller runs its numpy reference; here that
is ``_grouped_pair_values``,
which groups the pairs by shape, gathers their curves from the two sets
and chunks them for ``_accumulate``, and for the self matrix the pairs of
``np.triu_indices`` through it. It is also the reference the compiled
loops are tested against. The two give the same bits: both take each
pointwise distance as the square root of the squared coordinate
differences summed in order from 0.0, apply the same scale and power, and
set each DP cell to its cost plus the minimum of its three predecessors,
which is the same value whichever order the cells are filled in.

Costs are accumulated as p-th powers and rooted once, by one rule for every
entry point: identity for p = 1, square and ``sqrt`` for p = 2, and C
``pow`` (elementwise, as ``np.float_power`` calls it) otherwise, so all
entry points give the same bits for the same pair. For p > 32 each pair's
distances are first divided by their largest finite value, so the powers
cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .curves import Curve, CurveSet, ValidationError, as_curve_set

_OVERFLOW_SAFE_P = 32.0
_BLOCK_CELLS = 2**21  # per-chunk budget of DP cells times the dimension

# backward moves (first, second) in tie-break order for equal DP
# predecessors: diagonal, then advancing the second curve, then the first
_BACK_STEPS = ((1, 1), (0, 1), (1, 0))


@dataclass(frozen=True)
class Traversal:
    """A monotone coupling of two index ranges certifying a DTW value."""

    pairs: tuple[tuple[int, int], ...]

    def validate(self, m, l):
        if not self.pairs:
            raise ValidationError("traversal is empty")
        if self.pairs[0] != (0, 0) or self.pairs[-1] != (m - 1, l - 1):
            raise ValidationError("traversal endpoints must be (0,0) and (m-1,l-1)")
        for (a0, b0), (a1, b1) in zip(self.pairs, self.pairs[1:]):
            if (a1 - a0, b1 - b0) not in ((1, 0), (0, 1), (1, 1)):
                raise ValidationError(f"invalid traversal step ({a1 - a0},{b1 - b0})")


@dataclass(frozen=True)
class DtwResult:
    value: float
    traversal: Traversal


@dataclass(frozen=True)
class QuantizedDistance:
    """Value on the geometric radius grid: value = (1+eps)^(exponent+1),
    or exactly 0 (exponent None) when the true distance is 0."""

    value: float
    exponent: int | None
    eps: float

    @property
    def is_zero(self):
        return self.exponent is None


def _check_p(p):
    if not 1.0 <= p < math.inf:  # at p = inf every scaled power is 0 or 1, and the root 1
        raise ValidationError("p must be >= 1 and finite")


def _check_pair(a: Curve, b: Curve):
    if a.dimension != b.dimension:
        raise ValidationError(
            f"dimension mismatch: {a.id!r} has d={a.dimension}, {b.id!r} has d={b.dimension}"
        )


# ---------------------------------------------------------------------------
# the kernel
# ---------------------------------------------------------------------------

def _pth_powers(dist, p):
    """Raise distances (pairs along the last axis) to the p-th power in place
    and return the per-pair scale the root is multiplied by.

    For p > 32 each pair is first divided by its largest finite distance;
    infinite entries stay infinite.
    """
    scale = np.ones(dist.shape[-1])
    if p > _OVERFLOW_SAFE_P:
        finite = np.where(np.isfinite(dist), dist, 0.0)
        scale = finite.reshape(-1, dist.shape[-1]).max(axis=0)
        scale[scale == 0.0] = 1.0
        dist /= scale
    if p == 2.0:
        np.multiply(dist, dist, out=dist)
    elif p != 1.0:
        np.float_power(dist, p, out=dist)
    return scale


def _root(total, p, scale):
    """Per-pair p-th root of accumulated powers, times the scale."""
    if p == 2.0:
        total = np.sqrt(total)
    elif p != 1.0:
        total = np.float_power(total, 1.0 / p)
    return total * scale


def _distance_table(pa, pb):
    """Kernel table for n pairs: pointwise distances between pa (m, d, n) and
    pb (l, d, n) in the interior of an (m+1, l+1, n) array."""
    m, d, n = pa.shape
    table = np.empty((m + 1, pb.shape[0] + 1, n))
    dist = table[1:, 1:]
    dist[...] = 0.0
    for k in range(d):
        diff = pa[:, None, k] - pb[None, :, k]
        diff *= diff
        dist += diff
    np.sqrt(dist, out=dist)
    return table


def _accumulate(table, p):
    """The DTW dynamic program, in place, for every pair of the table;
    returns the per-pair p-DTW values.

    The interior's nonnegative costs are raised to the p-th power; afterwards
    table[i, j] is the least p-th power cost of a traversal of the first i
    points of one curve and the first j of the other.
    """
    _check_p(p)
    m, l, n = table.shape[0] - 1, table.shape[1] - 1, table.shape[2]
    scale = _pth_powers(table[1:, 1:], p)
    table[0] = np.inf
    table[:, 0] = np.inf
    table[0, 0] = 0.0
    # in the flattened table the cells (i, s - i) of anti-diagonal s lie l
    # apart, and their predecessors sit l + 2, l + 1 and 1 places earlier
    flat = table.reshape((m + 1) * (l + 1), n)
    for s in range(2, m + l + 1):
        start = s + max(1, s - l) * l
        stop = s + min(m, s - 1) * l + 1
        best = np.minimum(
            flat[start - l - 2 : stop - l - 2 : l], flat[start - l - 1 : stop - l - 1 : l]
        )
        np.minimum(best, flat[start - 1 : stop - 1 : l], out=best)
        flat[start:stop:l] += best
    return _root(table[-1, -1], p, scale)


def _traceback(acc):
    """Cheapest traversal of one pair's accumulated (m+1, l+1) table."""
    i, j = acc.shape[0] - 1, acc.shape[1] - 1
    pairs = [(i - 1, j - 1)]
    while (i, j) != (1, 1):
        step = np.argmin((acc[i - 1, j - 1], acc[i, j - 1], acc[i - 1, j]))
        di, dj = _BACK_STEPS[step]
        i, j = i - di, j - dj
        pairs.append((i - 1, j - 1))
    return Traversal(tuple(reversed(pairs)))


def _check_sets(a, b):
    """Raise ``ValidationError`` unless two curve sets share a dimension
    (an empty set has any)."""
    if len(a) and len(b) and a.dimension != b.dimension:
        raise ValidationError(f"dimension mismatch: d={a.dimension} against d={b.dimension}")


def _work(a, b):
    """The scratch array of ``dtw_pairs``: 8 (d + 1) (n + 1) doubles for the
    longest curve n of the two sets."""
    longest = max(int(a.lengths.max(initial=0)), int(b.lengths.max(initial=0)))
    return np.empty(8 * (a.dimension + 1) * (longest + 1))


def _pair_values(a, b, rows, cols, p):
    """p-DTW values of the pairs of curves (a[rows[t]], b[cols[t]]) of two
    curve sets: by the compiled ``dtw_pairs``, or by ``_grouped_pair_values``
    where the library cannot be built, with the same bits. p is checked even
    when there are no pairs, and an index out of range raises ``IndexError``.

    Where the pairs have more than one shape (m, l), the compiled loop gets
    them in a stable order of their shapes, so that consecutive pairs of one
    shape fill its vector lanes, and the values go back in pair order. A
    value depends on its pair alone, so the order changes no bit."""
    rows = np.ascontiguousarray(rows, dtype=np.intp)
    cols = np.ascontiguousarray(cols, dtype=np.intp)
    _check_p(p)
    _check_sets(a, b)
    if rows.size == 0:
        return np.zeros(0)
    if min(rows.min(), cols.min()) < 0 or rows.max() >= len(a) or cols.max() >= len(b):
        raise IndexError("pair index out of range")
    lib = _kernels.library()
    if lib is None:
        return _grouped_pair_values(a, b, rows, cols, p)
    order = None
    shapes = a.lengths[rows] * (int(b.lengths.max()) + 1) + b.lengths[cols]
    if shapes.min() != shapes.max():
        order = np.argsort(shapes, kind="stable")
        rows, cols = rows[order], cols[order]
    work = _work(a, b)
    out = np.empty(rows.size)
    lib.dtw_pairs(
        a.points.ctypes.data, a.offsets.ctypes.data, a.lengths.ctypes.data,
        b.points.ctypes.data, b.offsets.ctypes.data, b.lengths.ctypes.data,
        a.dimension, rows.ctypes.data, cols.ctypes.data, rows.size, p,
        out.ctypes.data, work.ctypes.data,
    )
    if order is None:
        return out
    values = np.empty_like(out)
    values[order] = out
    return values


def _grouped_pair_values(a, b, rows, cols, p):
    """The numpy reference of ``_pair_values``: pairs are grouped by their
    complexities, and each group's curves are gathered from the two sets
    and evaluated by ``_accumulate`` in chunks of at most ``_BLOCK_CELLS``
    cells times the dimension."""
    out = np.zeros(rows.size)
    d = a.dimension
    lmax = int(b.lengths.max())
    keys = a.lengths[rows] * (lmax + 1) + b.lengths[cols]

    def gathered(s, idx, m):  # the curves idx of set s, m points each, as (m, d, len(idx))
        return s.points[s.offsets[idx] + np.arange(m)[:, None]].transpose(0, 2, 1)

    for key in np.unique(keys):
        members = np.flatnonzero(keys == key)
        ma, mb = divmod(int(key), lmax + 1)
        block = max(1, _BLOCK_CELLS // (ma * mb * d))
        for start in range(0, members.size, block):
            chunk = members[start : start + block]
            table = _distance_table(gathered(a, rows[chunk], ma), gathered(b, cols[chunk], mb))
            out[chunk] = _accumulate(table, p)
    return out


def _self_triangle(curves, p):
    """A fresh n x n array whose diagonal (0) and upper triangle hold the
    p-DTW matrix of a curve set; the compiled ``dtw_self`` leaves the lower
    triangle unwritten. It gets the curves in a stable order of their
    lengths, so that columns of one length fill its lanes in groups of 4,
    and a scratch for the lanes of the DP row, of one row curve and of
    every group (ceil(c / 4) groups for c curves of one length). Where the
    library cannot be built, the pairs of ``np.triu_indices`` go through
    ``_pair_values`` and are scattered into both triangles: the reference,
    with the same bits."""
    n = len(curves)
    lib = _kernels.library()
    if lib is None or n < 2:
        out = np.zeros((n, n))
        rows, cols = np.triu_indices(n, k=1)
        out[rows, cols] = out[cols, rows] = _pair_values(curves, curves, rows, cols, p)
        return out
    _check_p(p)
    lengths = curves.lengths
    order = np.argsort(lengths, kind="stable")
    d = curves.dimension
    classes, counts = np.unique(lengths, return_counts=True)
    longest, grouped = int(classes[-1]), int(((counts + 3) // 4 * classes).sum())
    work = np.empty(4 * (2 * longest + 1 + (longest + grouped) * d))
    out = np.empty((n, n))
    lib.dtw_self(
        curves.points.ctypes.data, curves.offsets.ctypes.data, lengths.ctypes.data, d,
        order.ctypes.data, n, p, out.ctypes.data, work.ctypes.data,
    )
    return out


# ---------------------------------------------------------------------------
# exact distance
# ---------------------------------------------------------------------------

def dtw(a: Curve, b: Curve, p=1.0) -> DtwResult:
    """Exact p-DTW with a cost-attaining traversal.

    Ties between DP predecessors are broken deterministically: diagonal step
    first, then the step advancing the second curve, then the first.
    """
    _check_pair(a, b)
    table = _distance_table(a.points[:, :, None], b.points[:, :, None])
    value = float(_accumulate(table, p)[0])
    return DtwResult(value, _traceback(table[:, :, 0]))


def dtw_value(a: Curve, b: Curve, p=1.0) -> float:
    """p-DTW value only (no traversal recovery)."""
    return float(_pair_values(CurveSet([a]), CurveSet([b]), [0], [0], p)[0])


def traversal_cost(a: Curve, b: Curve, traversal: Traversal, p=1.0) -> float:
    """Induced cost of a traversal: the lp-aggregate of its pointwise distances."""
    _check_pair(a, b)
    dist = np.array(
        [[np.linalg.norm(a.points[i] - b.points[j])] for i, j in traversal.pairs]
    )
    scale = _pth_powers(dist, p)
    return float(_root(dist.sum(axis=0), p, scale)[0])


def dtw_matrix(curves_a, curves_b, p=1.0):
    """All-pairs p-DTW values between two curve sets, as an (na, nb) array.

    Every pair is evaluated, equal point sequences included, and each set
    is read where it lies. A value depends on its pair alone, so the
    entries have the bits of per-pair ``dtw_value`` calls.
    """
    a, b = as_curve_set(curves_a), as_curve_set(curves_b)
    rows = np.repeat(np.arange(len(a)), len(b))
    cols = np.tile(np.arange(len(b)), len(a))
    return _pair_values(a, b, rows, cols, p).reshape(len(a), len(b))


def assign_nearest(curves, centers, p=1.0):
    """Nearest-center assignment under p-DTW: (index of each curve's nearest
    center, ties to the lowest index; the p-DTW distance to it), from
    ``dtw_matrix``."""
    cross = dtw_matrix(curves, centers, p)
    assignment = np.argmin(cross, axis=1)
    return assignment, cross[np.arange(cross.shape[0]), assignment]


def dtw_aligned(curves_a, curves_b, p=1.0):
    """Elementwise p-DTW values dtw(curves_a[i], curves_b[i]), batched."""
    a, b = as_curve_set(curves_a), as_curve_set(curves_b)
    if len(a) != len(b):
        raise ValidationError("aligned lists must have equal length")
    return _pair_values(a, b, np.arange(len(a)), np.arange(len(b)), p)


def dtw_self_matrix(curves, p=1.0):
    """Symmetric all-pairs p-DTW matrix of one curve set (zero diagonal).

    Every pair (i, j > i) is evaluated once and mirrored, so the entries
    have the bits of per-pair ``dtw_value`` calls; two curves with the same
    points, a repeat of a selection included, are exactly 0 apart, as their
    DTW is. It is ``_self_triangle`` with the upper triangle copied into
    the lower one by the compiled ``mirror``; where the library cannot be
    built, ``_self_triangle`` already gives the whole matrix.
    """
    out = _self_triangle(as_curve_set(curves), p)
    lib = _kernels.library()
    if lib is not None:
        lib.mirror(out.ctypes.data, out.shape[0])
    return out


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def enumerate_traversals(m, l):
    """All (m, l)-traversals (0-based pairs), in depth-first step order."""
    def extend(i, j, prefix):
        if i == m - 1 and j == l - 1:
            yield Traversal(tuple(prefix))
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            ni, nj = i + di, j + dj
            if ni < m and nj < l:
                prefix.append((ni, nj))
                yield from extend(ni, nj, prefix)
                prefix.pop()

    yield from extend(0, 0, [(0, 0)])


def dtw_brute(a: Curve, b: Curve, p=1.0) -> DtwResult:
    """Exhaustive minimization over all traversals; test oracle for dtw.

    Guarded to m*l <= 36.
    """
    _check_pair(a, b)
    m, l = a.complexity, b.complexity
    if m * l > 36:
        raise ValidationError(f"dtw_brute size guard: m*l = {m * l} > 36")
    best_value = math.inf
    best_traversal = None
    for t in enumerate_traversals(m, l):
        value = traversal_cost(a, b, t, p)
        if value < best_value:
            best_value = value
            best_traversal = t
    return DtwResult(best_value, best_traversal)


# ---------------------------------------------------------------------------
# quantized approximate distance
# ---------------------------------------------------------------------------

def ball_membership(tau: Curve, sigma: Curve, r, p=1.0, eps=1.0) -> int:
    """Approximate ball-membership predicate for the radius-r ball at tau.

    Each pointwise distance is rounded up to the grid {z*e*r : z in
    [floor(1/e + 1)]} with e = eps/(m+l)^(1/p) (infinity past the grid's
    reach), the traversal DP runs on those costs, and the result is 1 iff
    the quantized value is at most (1 + (m+l)^(1/p) * e) * r.

    Guarantees: returns 1 whenever dtw <= r and 0 whenever dtw > (1+eps)*r;
    in between the output depends on the quantization. Monotone nondecreasing
    in r.
    """
    if not (0.0 < eps <= 1.0):
        raise ValidationError("eps must lie in (0, 1]")
    if not r > 0:
        raise ValidationError("r must be positive")
    _check_p(p)
    _check_pair(tau, sigma)
    zeta = float(tau.complexity + sigma.complexity) ** (1.0 / p)
    e = eps / zeta
    zmax = math.floor(1.0 / e + 1.0)
    pitch = e * r

    table = _distance_table(tau.points[:, :, None], sigma.points[:, :, None])
    phi = table[1:, 1:]
    z = np.maximum(np.ceil(phi / pitch), 1.0)
    phi[...] = np.where(z <= zmax, z * pitch, np.inf)
    value = float(_accumulate(table, p)[0])
    return 1 if value <= (1.0 + zeta * e) * r else 0


def adtw(sigma: Curve, tau: Curve, p=1.0, eps=1.0) -> QuantizedDistance:
    """Quantized (1+eps)-approximation of p-DTW on the radius grid
    {(1+eps)^z : z integer}.

    Returns (1+eps)^(z+1) for the largest grid exponent z with
    (1+eps)^z <= dtw, which is the unique grid value v satisfying
    dtw < v <= (1+eps)*dtw; returns exact 0 when dtw = 0.
    """
    if not (0.0 < eps <= 1.0):
        raise ValidationError("eps must lie in (0, 1]")
    _check_pair(sigma, tau)
    value = dtw_value(sigma, tau, p)
    if value == 0.0:
        return QuantizedDistance(0.0, None, eps)
    base = 1.0 + eps
    z = math.floor(math.log(value) / math.log(base))
    # fix float boundary drift so that base^z <= value < base^(z+1)
    while base ** (z + 1) <= value:
        z += 1
    while base**z > value:
        z -= 1
    return QuantizedDistance(base ** (z + 1), z, eps)
