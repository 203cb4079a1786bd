"""Low-complexity curve simplification under p-DTW.

All variants share one scheme: a table C of costs for grouping a contiguous
vertex range under a single center, and a partition DP selecting the best
split of the curve into at most ell contiguous groups. The returned curve has
one center per group, so the DP's grouping cost is realized by the lopsided
traversal matching each group to its center.

Cell cost variants: local medoid (deterministic 2-approximation for every p),
geometric median via Weiszfeld (near-optimal groups for p = 1), any-vertex
medoid (exact among vertex-restricted simplifications), and centroid (exact
for p = 2; sum of squared distances is minimized by the mean).

The two medoid variants run through ``_medoid_simplifications``, batched
over every curve of one (complexity, dimension); a one-curve function is a
batch of one. A batch is chunked by the DTW kernel's cell budget, which
bounds the numpy reference's batch-last (m, m, n) table of the p-th powers
of the pointwise distances (scaled per curve for p > 32), but a chunk holds
at least four curves. ``medoid_partition``, a function of the package's
compiled library (``_kernels``), builds each curve's table of powers and
cost table, runs the partition DP and its traceback, and picks each part's
center: the first vertex that attains the part's table entry. It builds
the tables of four curves at once (two without AVX2), one per vector lane,
and fills the lanes of a short last group with copies of its last curve;
so its scratch array holds four curves' tables, 1.1 MB at m = 128 and
64 MB at m = 1000, and a chunk of fewer than four curves would pay for
four. The library's one fallback rule: where it cannot be built, each
caller runs its numpy reference; here that is the DTW kernel's distance
table, ``_medoid_cost_table`` (which keeps that vertex for every entry)
and ``_partition`` on the whole chunk. Each lane adds, compares and
rounds the same terms in the same order, so both give the same bits, and
the tests pin them to each other.

The local-medoid table is built from split sums: a range [a, b] with center
v costs L(v, a) + R(v, b), the sums of dp[v, j] from v leftwards to a and
from v rightwards to b. Each is a direct sum of nonnegative terms, so no
prefix sum is subtracted and small terms cannot cancel against large ones.
The split sums add the same terms as summing each range from a, in another
order: table entries and grouping costs stay within a relative m * 2^-52 of
that direct sum, and the parts and curves have equal bits on the tested
inputs (``tests/test_simplify.py`` keeps the direct sum as the reference).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .curves import Curve, ValidationError
from .dtw import _BLOCK_CELLS, _check_p, _distance_table, _pth_powers, _root

WEISZFELD_MAX_ITER = 200
WEISZFELD_REL_TOL = 1e-10
WEISZFELD_NUDGE = 1e-7

# the most curves that the compiled medoid_partition runs at once, one per vector lane
_LANES = 4


@dataclass(frozen=True)
class Simplification:
    """A simplified curve plus the partition certifying its grouping cost.

    ``parts`` are inclusive 0-based index ranges of the input curve;
    ``grouping_cost`` is the lp-aggregate of the per-group costs, which the
    lopsided traversal of (curve, original) realizes.
    """

    curve: Curve
    parts: tuple[tuple[int, int], ...]
    grouping_cost: float


def _medoid_cost_table(dp, restrict_to_range):
    """Cost tables C[a, b, t] = min over center vertices v of
    sum_{j in [a,b]} dp[v, j, t], for n batch-last tables
    dp[i, j, t] = |sigma_i - sigma_j|^p of curve t; inf below the diagonal.
    Returns C and the first v that attains each entry.

    With ``restrict_to_range`` the center must lie inside [a, b] (the local
    medoid of the 2-approximation). Each range sum then splits at its center
    v into L(v, a) = sum_{j=a..v} dp[v, j], summed leftwards from v, and
    R(v, b) = sum_{j=v..b} dp[v, j], summed rightwards (dp[v, v] = 0 is
    counted in both), and C[a, b] = min_v L(v, a) + R(v, b): one rank-1
    minimum update of C[:v+1, v:] per center. Without it any vertex of the
    curve may serve (the vertex-restricted exact variant), and each row a of
    C is a minimum over all v of the sums from a, summed directly.

    Every sum adds nonnegative terms and none is subtracted, so small terms
    cannot cancel against large ones. A split sum adds the same terms as the
    direct sum from a to b, in another order, so the two may differ by a
    relative 2(b-a) * 2^-53, less than m * 2^-52; the grouping costs built
    from the table keep that tolerance.
    """
    m = dp.shape[0]
    cost = np.full(dp.shape, np.inf)
    centers = np.zeros(dp.shape, dtype=np.intp)
    if restrict_to_range:
        centers += np.arange(m)[:, None, None]  # a, the first v of [a, b]
        for v in range(m):
            left = np.cumsum(dp[v, v::-1], axis=0)[::-1]
            right = np.cumsum(dp[v, v:], axis=0)
            sums = left[:, None] + right[None]
            less = sums < cost[: v + 1, v:]
            np.copyto(cost[: v + 1, v:], sums, where=less)
            np.copyto(centers[: v + 1, v:], v, where=less)
    else:
        for a in range(m):
            sums = np.cumsum(dp[:, a:], axis=1)
            cost[a, a:] = sums.min(axis=0)
            centers[a, a:] = sums.argmin(axis=0)
    return cost, centers


def _centroid_cost_table(points):
    """C[a, b] = within-group sum of squared distances to the group mean."""
    m = points.shape[0]
    psum = np.vstack([np.zeros(points.shape[1]), np.cumsum(points, axis=0)])
    sqsum = np.concatenate([[0.0], np.cumsum(np.einsum("ij,ij->i", points, points))])
    cost = np.full((m, m), np.inf)
    for a in range(m):
        counts = np.arange(1, m - a + 1, dtype=np.float64)
        seg = psum[a + 1 :] - psum[a]
        seg_sq = sqsum[a + 1 :] - sqsum[a]
        vals = seg_sq - np.einsum("ij,ij->i", seg, seg) / counts
        cost[a, a:] = np.maximum(vals, 0.0)
    return cost


def geometric_median(points, max_iter=WEISZFELD_MAX_ITER, rel_tol=WEISZFELD_REL_TOL):
    """Weiszfeld iteration for the point minimizing the sum of Euclidean
    distances, started at the coordinate-wise median.

    If an iterate lands on a data point the iteration restarts from a nudged
    position. Deterministic.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape[0] == 1:
        return pts[0].copy()
    if np.all(np.linalg.norm(pts - pts[0], axis=1) < 1e-14):
        return pts[0].copy()
    x = np.median(pts, axis=0)
    for _ in range(max_iter):
        dist = np.linalg.norm(pts - x, axis=1)
        if np.any(dist < 1e-14):
            x = x + WEISZFELD_NUDGE
            continue
        weights = 1.0 / dist
        x_new = (pts * weights[:, None]).sum(axis=0) / weights.sum()
        move = np.linalg.norm(x_new - x)
        x = x_new
        if move <= rel_tol * max(1.0, float(np.linalg.norm(x))):
            break
    return x


def median_cost(points, center):
    return float(np.linalg.norm(np.asarray(points) - np.asarray(center), axis=1).sum())


def _geometric_median_cost_table(points):
    m = points.shape[0]
    cost = np.full((m, m), np.inf)
    centers = {}
    for a in range(m):
        for b in range(a, m):
            c = geometric_median(points[a : b + 1])
            centers[(a, b)] = c
            cost[a, b] = median_cost(points[a : b + 1], c)
    return cost, centers


def _partition(cost, max_parts):
    """Best split of [0, m) into at most ``max_parts`` contiguous groups, for
    each of the n batch-last cost tables cost[:, :, t].

    Returns (the parts of each table, the total cost of each in cell units).
    Ties between part counts go to the fewer parts; ties between splits go
    to the lexicographically smallest split vector (recovered forward over
    the suffix DP, one table at a time).
    """
    m, n = cost.shape[0], cost.shape[2]
    max_parts = min(max_parts, m)
    # suffix[j][i, t] = best cost of grouping [i, m) of table t into exactly j groups
    suffix = [np.full((m + 1, n), np.inf)]
    first = np.full((m + 1, n), np.inf)
    first[:m] = cost[:, m - 1]
    suffix.append(first)
    for _ in range(2, max_parts + 1):
        prev, cur = suffix[-1], np.full((m + 1, n), np.inf)
        for i in range(m):
            cur[i] = (cost[i, i:] + prev[i + 1 :]).min(axis=0)
        suffix.append(cur)

    totals = np.array([s[0] for s in suffix[1:]])
    best = np.argmin(totals, axis=0)
    all_parts = []
    for t in range(n):
        parts = []
        i, j = 0, 1 + int(best[t])
        while j > 1:
            targets = cost[i, i:, t] + suffix[j - 1][i + 1 :, t]
            e = i + int(np.argmax(targets == suffix[j][i, t]))
            parts.append((i, e))
            i, j = e + 1, j - 1
        parts.append((i, m - 1))
        all_parts.append(tuple(parts))
    return all_parts, totals[best, np.arange(n)]


def _finish(sigma, parts, centers, grouping):
    return Simplification(Curve(sigma.id, np.array(centers)), parts, float(grouping))


def _identity(sigma):
    parts = tuple((i, i) for i in range(sigma.complexity))
    return Simplification(sigma, parts, 0.0)


def _medoid_simplifications(curves, ell, p, restrict_to_range):
    """The best medoid grouping into at most ell parts of every curve, in
    input order; a curve of complexity <= ell is its own simplification.

    The curves of one (complexity m, dimension d) are batched, in chunks of
    at most ``_BLOCK_CELLS`` cells times d per m x m table but at least
    ``_LANES`` curves, and each chunk runs through ``_medoid_partitions``.
    """
    if ell < 1:
        raise ValidationError("ell must be >= 1")
    _check_p(p)
    out = [_identity(c) if c.complexity <= ell else None for c in curves]
    groups: dict[tuple[int, int], list[int]] = {}
    for i, c in enumerate(curves):
        if out[i] is None:
            groups.setdefault((c.complexity, c.dimension), []).append(i)
    for (m, d), members in groups.items():
        block = max(_LANES, _BLOCK_CELLS // (m * m * d))
        for start in range(0, len(members), block):
            chunk = members[start : start + block]
            pts = np.stack([curves[i].points for i in chunk])
            done = zip(chunk, *_medoid_partitions(pts, ell, p, restrict_to_range))
            for i, parts, centers, cost in done:
                out[i] = _finish(curves[i], parts, curves[i].points[centers], cost)
    return out


def _medoid_partitions(pts, ell, p, restrict_to_range):
    """For the n curves pts (n, m, d): the parts of each curve's best medoid
    grouping, the center vertex of each part, and the grouping's rooted
    cost, with the p-th powers scaled per curve for p > 32. The compiled
    ``medoid_partition`` does the arithmetic of ``_medoid_cost_table`` and
    ``_partition`` in their order, so its results have their bits; those
    two run where the library cannot be built. It runs up to ``_LANES``
    curves at once, and its scratch ``work`` holds their tables and
    interleaved points: about 4 (2 m^2 + ell m) doubles.
    """
    n, m, d = pts.shape
    lib = _kernels.library()
    if lib is None:
        batch = np.moveaxis(pts, 0, -1)
        table = _distance_table(batch, batch)
        scale = _pth_powers(table[1:, 1:], p)
        cost, centers = _medoid_cost_table(table[1:, 1:], restrict_to_range)
        all_parts, totals = _partition(cost, ell)
        chosen = [[int(centers[a, b, t]) for a, b in parts] for t, parts in enumerate(all_parts)]
        return all_parts, chosen, _root(totals, p, scale)
    work = np.empty(_LANES * (2 * m * m + min(ell, m) * (m + 1) + 2 * m + m * d))
    ends = np.empty((n, ell), dtype=np.intp)
    centers = np.empty((n, ell), dtype=np.intp)
    counts = np.empty(n, dtype=np.intp)
    costs = np.empty(n)
    lib.medoid_partition(
        pts.ctypes.data, n, m, d, p, ell, restrict_to_range, work.ctypes.data,
        ends.ctypes.data, counts.ctypes.data, centers.ctypes.data, costs.ctypes.data,
    )
    all_parts, chosen = [], []
    for own, own_centers, count in zip(ends.tolist(), centers.tolist(), counts.tolist()):
        own = own[:count]
        all_parts.append(tuple(zip([0] + [e + 1 for e in own[:-1]], own)))
        chosen.append(own_centers[:count])
    return all_parts, chosen, costs


def simplify_2approx_detailed(sigma: Curve, ell, p=1.0) -> Simplification:
    return _medoid_simplifications([sigma], ell, p, restrict_to_range=True)[0]


def simplify_2approx(sigma: Curve, ell, p=1.0) -> Curve:
    """Deterministic 2-approximate ell-simplification via local medoids.

    The grouping cost of the returned partition is within a factor 2 of the
    best achievable p-DTW distance over all curves of complexity <= ell.
    """
    return simplify_2approx_detailed(sigma, ell, p).curve


def simplify_eps_p1_detailed(sigma: Curve, ell) -> Simplification:
    if ell < 1:
        raise ValidationError("ell must be >= 1")
    if sigma.complexity <= ell:
        return _identity(sigma)
    pts = sigma.points
    cost, cell_centers = _geometric_median_cost_table(pts)
    (parts,), (total,) = _partition(cost[:, :, None], ell)
    centers = [cell_centers[part] for part in parts]
    return _finish(sigma, parts, centers, total)


def simplify_eps_p1(sigma: Curve, ell) -> Curve:
    """ell-simplification for p = 1 with a geometric median per group.

    The partition DP runs over group costs whose centers are Weiszfeld
    iterates (``geometric_median``), stopped at a relative step of
    ``WEISZFELD_REL_TOL`` or after ``WEISZFELD_MAX_ITER`` iterations. With
    exact medians the grouping cost would be the least over all partitions
    into at most ell contiguous groups with one center each; the tests
    bound it by a grid search. The fixed tolerances set the accuracy, and
    the deterministic solver makes the result deterministic.
    """
    return simplify_eps_p1_detailed(sigma, ell).curve


def simplify_vertex_restricted_detailed(sigma: Curve, ell, p=1.0) -> Simplification:
    if ell > sigma.complexity:
        raise ValidationError("ell must be <= the curve complexity")
    return _medoid_simplifications([sigma], ell, p, restrict_to_range=False)[0]


def simplify_vertex_restricted(sigma: Curve, ell, p=1.0) -> Curve:
    """Exact optimum among simplifications whose vertices lie on vertices of
    sigma (any vertex may serve any group)."""
    return simplify_vertex_restricted_detailed(sigma, ell, p).curve


def simplify_exact_p2_detailed(sigma: Curve, ell) -> Simplification:
    if ell < 1:
        raise ValidationError("ell must be >= 1")
    if sigma.complexity <= ell:
        return _identity(sigma)
    pts = sigma.points
    cost = _centroid_cost_table(pts)
    (parts,), (total,) = _partition(cost[:, :, None], ell)
    centers = [pts[a : b + 1].mean(axis=0) for a, b in parts]
    return _finish(sigma, parts, centers, np.sqrt(total))


def simplify_exact_p2(sigma: Curve, ell) -> Curve:
    """Exact optimal ell-simplification under 2-DTW (centroid groups);
    the oracle for the 2-approximation bound."""
    return simplify_exact_p2_detailed(sigma, ell).curve


def simplify_set(curves, ell, p=1.0, method="two-approx"):
    """Apply one simplification method to every curve, preserving order.

    Every curve given is simplified, under its own id; equal point
    sequences are collapsed by the clustering entry points, not here. A
    result depends on the points alone, so it has the bits of a one-curve
    call. The medoid methods ("two-approx", "vertex") simplify the curves of
    one (complexity, dimension) in one batch. A curve of complexity <= ell
    is returned as it is.
    """
    if method not in ("two-approx", "eps1", "vertex"):
        raise ValidationError(f"unknown simplification method {method!r}")
    if method == "eps1" and p != 1:
        raise ValidationError("method 'eps1' (geometric medians) needs p = 1")
    curves = list(curves)
    if method == "eps1":
        return [simplify_eps_p1(c, ell) for c in curves]
    return [s.curve for s in _medoid_simplifications(curves, ell, p, method == "two-approx")]
