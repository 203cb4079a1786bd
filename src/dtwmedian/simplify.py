"""Low-complexity curve simplification under p-DTW.

All variants share one scheme: a table C of costs for grouping a contiguous
vertex range under a single center, and a partition DP selecting the best
split of the curve into at most ell contiguous groups. The returned curve has
one center per group, so the DP's grouping cost is realized by the lopsided
traversal matching each group to its center.

Cell cost variants: local medoid (deterministic 2-approximation for every p),
geometric median via Weiszfeld (1+eps approximation for p = 1), any-vertex
medoid (exact among vertex-restricted simplifications), and centroid (exact
for p = 2; sum of squared distances is minimized by the mean).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curves import Curve, ValidationError
from .dtw import _distance_table, _pth_powers, _root

WEISZFELD_MAX_ITER = 200
WEISZFELD_REL_TOL = 1e-10
WEISZFELD_NUDGE = 1e-7


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
    """C[a, b] = min over center vertices v of sum_{j in [a,b]} dp[v, j], for
    the table dp[i, j] = |sigma_i - sigma_j|^p.

    With ``restrict_to_range`` the center must lie inside [a, b] (the local
    medoid of the 2-approximation); without it any vertex of the curve may
    serve (the vertex-restricted exact variant).
    """
    m = dp.shape[0]
    below = np.tri(m, k=-1, dtype=bool)
    cost = np.full((m, m), np.inf)
    for a in range(m):
        # sums[v, b-a] = sum_{j in [a,b]} dp[v, j], summed directly: a
        # difference of prefix sums cancels across magnitudes
        sums = np.cumsum(dp[a:, a:] if restrict_to_range else dp[:, a:], axis=1)
        if restrict_to_range:
            sums[below[: m - a, : m - a]] = np.inf  # v = a + row must lie in [a, b]
        cost[a, a:] = sums.min(axis=0)
    return cost


def _medoid_center(points, dp, a, b, restrict_to_range):
    sums = dp[:, a : b + 1].sum(axis=1)
    if restrict_to_range:
        idx = a + int(np.argmin(sums[a : b + 1]))
    else:
        idx = int(np.argmin(sums))
    return points[idx]


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
    """Best split of [0, m) into at most ``max_parts`` contiguous groups.

    Returns (parts, total_cost_in_cell_units). Ties between part counts go to
    the fewer parts; ties between splits go to the lexicographically smallest
    split vector (recovered forward over the suffix DP).
    """
    m = cost.shape[0]
    max_parts = min(max_parts, m)
    # suffix[j][i] = best cost of grouping [i, m) into exactly j groups
    suffix = [np.full(m + 1, np.inf)]
    first = np.full(m + 1, np.inf)
    first[:m] = cost[:, m - 1]
    suffix.append(first)
    for _ in range(2, max_parts + 1):
        prev = suffix[-1]
        # cost is inf below its diagonal, so a row minimum ranges over ends >= i
        cur = np.full(m + 1, np.inf)
        cur[:m] = (cost + prev[1 : m + 1][None, :]).min(axis=1)
        suffix.append(cur)

    totals = [suffix[j][0] for j in range(1, max_parts + 1)]
    best_j = 1 + int(np.argmin(totals))
    total = totals[best_j - 1]

    parts = []
    i, j = 0, best_j
    while j > 1:
        targets = cost[i, :] + suffix[j - 1][1 : m + 1]
        e = i + int(np.argmax(targets[i:] == suffix[j][i]))
        parts.append((i, e))
        i, j = e + 1, j - 1
    parts.append((i, m - 1))
    return tuple(parts), float(total)


def _finish(sigma, parts, centers, grouping):
    return Simplification(Curve(sigma.id, np.array(centers)), parts, float(grouping))


def _medoid_simplification(sigma, ell, p, restrict_to_range):
    """Best medoid grouping of sigma into at most ell parts. The p-th powers
    of the pointwise distances come from the p-DTW kernel, scaled for p > 32
    so that they cannot overflow."""
    pts = sigma.points
    table = _distance_table(pts[:, :, None], pts[:, :, None])
    scale = _pth_powers(table[1:, 1:], p)[0]
    dp = table[1:, 1:, 0]
    cost = _medoid_cost_table(dp, restrict_to_range)
    parts, total = _partition(cost, ell)
    centers = [_medoid_center(pts, dp, a, b, restrict_to_range) for a, b in parts]
    return _finish(sigma, parts, centers, _root(total, p, scale))


def _identity(sigma):
    parts = tuple((i, i) for i in range(sigma.complexity))
    return Simplification(sigma, parts, 0.0)


def simplify_2approx_detailed(sigma: Curve, ell, p=1.0) -> Simplification:
    if ell < 1:
        raise ValidationError("ell must be >= 1")
    if sigma.complexity <= ell:
        return _identity(sigma)
    return _medoid_simplification(sigma, ell, p, restrict_to_range=True)


def simplify_2approx(sigma: Curve, ell, p=1.0) -> Curve:
    """Deterministic 2-approximate ell-simplification via local medoids.

    The grouping cost of the returned partition is within a factor 2 of the
    best achievable p-DTW distance over all curves of complexity <= ell.
    """
    return simplify_2approx_detailed(sigma, ell, p).curve


def simplify_eps_p1_detailed(sigma: Curve, ell, eps) -> Simplification:
    if ell < 1:
        raise ValidationError("ell must be >= 1")
    if not eps > 0:
        raise ValidationError("eps must be positive")
    if sigma.complexity <= ell:
        return _identity(sigma)
    pts = sigma.points
    cost, cell_centers = _geometric_median_cost_table(pts)
    parts, total = _partition(cost, ell)
    centers = [cell_centers[part] for part in parts]
    return _finish(sigma, parts, centers, total)


def simplify_eps_p1(sigma: Curve, ell, eps) -> Curve:
    """(1+eps)-approximate ell-simplification for p = 1 using per-group
    geometric medians.

    A deterministic Weiszfeld solver replaces a randomized one, so the result
    is deterministic.
    """
    return simplify_eps_p1_detailed(sigma, ell, eps).curve


def simplify_vertex_restricted_detailed(sigma: Curve, ell, p=1.0) -> Simplification:
    if ell > sigma.complexity:
        raise ValidationError("ell must be <= the curve complexity")
    if ell < 1:
        raise ValidationError("ell must be >= 1")
    if sigma.complexity == ell:
        return _identity(sigma)
    return _medoid_simplification(sigma, ell, p, restrict_to_range=False)


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
    parts, total = _partition(cost, ell)
    centers = [pts[a : b + 1].mean(axis=0) for a, b in parts]
    return _finish(sigma, parts, centers, np.sqrt(total))


def simplify_exact_p2(sigma: Curve, ell) -> Curve:
    """Exact optimal ell-simplification under 2-DTW (centroid groups);
    the oracle for the 2-approximation bound."""
    return simplify_exact_p2_detailed(sigma, ell).curve


def simplify_set(curves, ell, p=1.0, method="two-approx", eps=0.1):
    """Apply one simplification method to every curve, preserving order."""
    if method == "two-approx":
        return [simplify_2approx(c, ell, p) for c in curves]
    if method == "eps1":
        if p != 1:
            raise ValidationError("method 'eps1' (geometric medians) needs p = 1")
        return [simplify_eps_p1(c, ell, eps) for c in curves]
    if method == "vertex":
        return [simplify_vertex_restricted(c, min(ell, c.complexity), p) for c in curves]
    raise ValidationError(f"unknown simplification method {method!r}")
