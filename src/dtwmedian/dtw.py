"""Exact p-DTW, a brute-force oracle, and the quantized approximate distance
with its ball-membership predicate, all computed by one dynamic program.

Traversal index pairs are 0-based, from (0, 0) to (m-1, l-1) with steps in
{(1,0), (0,1), (1,1)}. The kernel ``_accumulate`` works on a batch-last
(m+1, l+1, n) table for n pairs of complexities m and l, pointwise costs in
its interior, and accumulates one anti-diagonal of all n pairs per numpy
step. ``dtw`` walks its traversal back from the table, ``ball_membership``
runs the kernel on quantized costs, and every batched value comes from
``_pair_values``, which groups, pads and chunks the pairs.

Costs are accumulated as p-th powers and rooted once, by one rule for every
entry point: identity for p = 1, square and ``sqrt`` for p = 2, and
``np.float_power`` (elementwise C ``pow``) otherwise, so all entry points
give the same bits for the same pair. For p > 32 each pair's distances are
first divided by their largest finite value, so the powers cannot overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve, ValidationError

_OVERFLOW_SAFE_P = 32.0
_BLOCK_CELLS = 2**24  # per-chunk budget of DP cells times the dimension

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
    if not p >= 1.0:
        raise ValidationError("p must be >= 1")
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


def _pair_values(curves, rows, cols, p):
    """p-DTW values of the pairs (curves[rows[t]], curves[cols[t]]).

    Pairs are grouped by their complexities and evaluated in chunks of at
    most ``_BLOCK_CELLS`` cells times the dimension.
    """
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    out = np.zeros(rows.size)
    if rows.size == 0:
        return out
    d = curves[0].dimension
    for c in curves:
        if c.dimension != d:
            raise ValidationError(f"dimension mismatch: curve {c.id!r}")
    comp = np.array([c.complexity for c in curves])
    mmax = int(comp.max())
    padded = np.zeros((mmax, d, len(curves)))
    for i, c in enumerate(curves):
        padded[: c.complexity, :, i] = c.points
    keys = comp[rows] * (mmax + 1) + comp[cols]
    for key in np.unique(keys):
        members = np.flatnonzero(keys == key)
        ma, mb = divmod(int(key), mmax + 1)
        block = max(1, _BLOCK_CELLS // (ma * mb * d))
        for start in range(0, members.size, block):
            chunk = members[start : start + block]
            table = _distance_table(padded[:ma, :, rows[chunk]], padded[:mb, :, cols[chunk]])
            out[chunk] = _accumulate(table, p)
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
    return float(_pair_values([a, b], [0], [1], p)[0])


def traversal_cost(a: Curve, b: Curve, traversal: Traversal, p=1.0) -> float:
    """Induced cost of a traversal: the lp-aggregate of its pointwise distances."""
    _check_pair(a, b)
    dist = np.array(
        [[np.linalg.norm(a.points[i] - b.points[j])] for i, j in traversal.pairs]
    )
    scale = _pth_powers(dist, p)
    return float(_root(dist.sum(axis=0), p, scale)[0])


def dtw_matrix(curves_a, curves_b, p=1.0):
    """All-pairs p-DTW values between two curve lists, as an (na, nb) array."""
    curves_a = list(curves_a)
    curves_b = list(curves_b)
    na, nb = len(curves_a), len(curves_b)
    rows = np.repeat(np.arange(na), nb)
    cols = na + np.tile(np.arange(nb), na)
    return _pair_values(curves_a + curves_b, rows, cols, p).reshape(na, nb)


def assign_nearest(curves, centers, p=1.0):
    """Nearest-center assignment under p-DTW: (index of each curve's nearest
    center, ties to the lowest index; the p-DTW distance to it)."""
    cross = dtw_matrix(curves, centers, p)
    assignment = np.argmin(cross, axis=1)
    return assignment, cross[np.arange(cross.shape[0]), assignment]


def dtw_aligned(curves_a, curves_b, p=1.0):
    """Elementwise p-DTW values dtw(curves_a[i], curves_b[i]), batched."""
    curves_a = list(curves_a)
    curves_b = list(curves_b)
    n = len(curves_a)
    if n != len(curves_b):
        raise ValidationError("aligned lists must have equal length")
    return _pair_values(curves_a + curves_b, np.arange(n), n + np.arange(n), p)


def dtw_self_matrix(curves, p=1.0):
    """Symmetric all-pairs p-DTW matrix of one curve list (zero diagonal)."""
    curves = list(curves)
    out = np.zeros((len(curves), len(curves)))
    rows, cols = np.triu_indices(len(curves), k=1)
    out[rows, cols] = out[cols, rows] = _pair_values(curves, rows, cols, p)
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
    if not p >= 1.0:
        raise ValidationError("p must be >= 1")
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
