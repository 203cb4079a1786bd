"""Low-complexity curve simplification under p-DTW.

All variants share one scheme: a cost C[a, b] for grouping a contiguous
vertex range under a single center, and a partition DP selecting the best
split of the curve into at most ell contiguous groups. The returned curve has
one center per group, so the DP's grouping cost is realized by the lopsided
traversal matching each group to its center.

Cell cost variants: local medoid (deterministic 2-approximation for every p),
geometric median via Weiszfeld (near-optimal groups for p = 1), any-vertex
medoid (exact among vertex-restricted simplifications), and centroid (exact
for p = 2; sum of squared distances is minimized by the mean).

The two medoid variants run through ``_medoid_partitions``, which returns
each curve's part ends, part count, center vertices and cost as arrays.
``_medoid_simplifications`` batches every curve of one complexity of a
curve set and writes only the simplified points, by gathering their
centers into one block; ``simplify_set`` returns the curve set over that
block, which the clustering entry points read as it is
(``bicriteria._prepare``). A one-curve ``_detailed`` function runs a batch
of one and alone builds the parts tuples and a ``Simplification``. A batch
is chunked by the DTW kernel's cell budget, which bounds the numpy
reference's batch-last (m, m, n) table of the p-th powers of the pointwise
distances (scaled per curve for p > 32), but a chunk holds at least four
curves. ``medoid_partition``, a function of the package's compiled library
(``_kernels``), builds each curve's table of powers, runs the partition DP
and its traceback, and picks each part's center: the first vertex with the
least sum over the part. It builds the tables of four curves at once, one
per lane of an AVX2 vector, and fills the lanes of a short last group with
copies of its last curve; so its scratch array holds four curves' m x m
tables, one for the local medoids (0.5 MB at m = 128 and 32 MB at
m = 1000) and two for the vertex-restricted variant, and a chunk of fewer
than four curves would pay for four. The library's one fallback rule: where
it cannot be built, or the host has no AVX2, each caller runs its numpy
reference; here that is the DTW kernel's distance table and
``_local_medoid_partition``, or ``_medoid_cost_table`` (which keeps the
first vertex that attains each entry) and ``_partition``, on the whole
chunk. Each lane adds the reference's operands and compares the same sums,
so both give the same bits, and the tests pin them to each other.

The local medoids are chosen by split sums: a range [a, b] with center v
costs L(v, a) + R(v, b), the sums of dp[v, j] from v leftwards to a and
from v rightwards to b, each a direct sum of nonnegative terms, so small
terms cannot cancel against large ones. The partition DP takes the center
into its levels (``_local_medoid_partition``): O(ell m^2) per curve, where a
range table takes O(m^3). A grouping's total adds L + (R + the rest) part
by part, the m terms of its parts and one zero per part, so it stays within
a relative (m + ell) 2^-52 of the direct sums of each range from a; parts
and curves have equal bits on the tested inputs (``tests/test_simplify.py``
keeps the direct sums as the reference). The compiled kernel stores L(v, a)
at [a, v] and R(v, b) at [b, v] of one m x m table W, adding each as the
reference does (dp is exactly symmetric), and runs the same levels over the
rows of W; every sum has the reference's operands, and a minimum is exact
in any order, so the kernel keeps the reference's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .curves import Curve, CurveSet, ValidationError, as_curve_set
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


def _medoid_cost_table(dp):
    """Cost tables C[a, b, t] = min over all vertices v of
    sum_{j in [a,b]} dp[v, j, t], summed directly from a (the
    vertex-restricted exact variant), for n batch-last tables
    dp[i, j, t] = |sigma_i - sigma_j|^p of curve t; inf below the diagonal.
    Returns C and the first v that attains each entry."""
    m = dp.shape[0]
    cost = np.full(dp.shape, np.inf)
    centers = np.zeros(dp.shape, dtype=np.intp)
    for a in range(m):
        sums = np.cumsum(dp[:, a:], axis=1)
        cost[a, a:] = sums.min(axis=0)
        centers[a, a:] = sums.argmin(axis=0)
    return cost, centers


def _local_medoid_partition(dp, max_parts):
    """``_partition`` over the local-medoid range costs of each of the n
    batch-last tables dp[i, j, t] = |sigma_i - sigma_j|^p of curve t, with
    W[a, v] = L(v, a) for a <= v and W[b, v] = R(v, b) for b >= v (the
    module docstring): S_1[i] = min_{v >= i} W[i, v] + W[m-1, v], and for
    j >= 2, H[v] = min_{e in [v, m-1)} W[e, v] + S_{j-1}[e+1] and
    S_j[i] = min_{v >= i} W[i, v] + H[v]. Returns (the parts of each table,
    their centers (the first v with the least W[a, v] + W[b, v]), the total
    cost of each in cell units)."""
    m, n = dp.shape[0], dp.shape[2]
    w = np.empty(dp.shape)
    for v in range(m):
        w[v::-1, v] = np.cumsum(dp[v, v::-1], axis=0)
        w[v:, v] = np.cumsum(dp[v, v:], axis=0)

    def level(h):  # S[i] = min_{v >= i} W[i, v] + h[v], and S[m] = inf
        return np.array([*((w[i, i:] + h[i:]).min(axis=0) for i in range(m)), np.full(n, np.inf)])

    suffix, h = [level(w[m - 1])], np.full((m, n), np.inf)
    for _ in range(1, min(max_parts, m)):
        for v in range(m - 1):
            h[v] = (w[v : m - 1, v] + suffix[-1][v + 1 : m]).min(axis=0)
        suffix.append(level(h))

    def attains(t, i, prev, target):  # some v in [i, e] with W[i, v] + (W[e, v] + prev[e + 1])
        ws = w[i:, i:, t]
        return np.triu(ws[0][:, None] + (ws.T + prev[i + 1 :]) == target).any(axis=0)

    all_parts, totals = _traceback(suffix, attains)
    centers = [
        [a + int(np.argmin(w[a, a : b + 1, t] + w[b, a : b + 1, t])) for a, b in parts]
        for t, parts in enumerate(all_parts)
    ]
    return all_parts, centers, totals


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
    each of the n batch-last cost tables cost[:, :, t]: the parts and total
    cost of each, as ``_traceback`` returns and breaks ties."""
    m, n = cost.shape[0], cost.shape[2]
    # suffix[j - 1][i, t] = best cost of grouping [i, m) of table t into exactly j groups
    suffix = [np.vstack([cost[:, m - 1], np.full(n, np.inf)])]
    for _ in range(1, min(max_parts, m)):
        prev, cur = suffix[-1], np.full((m + 1, n), np.inf)
        for i in range(m):
            cur[i] = (cost[i, i:] + prev[i + 1 :]).min(axis=0)
        suffix.append(cur)
    return _traceback(suffix, lambda t, i, prev, target: cost[i, i:, t] + prev[i + 1 :] == target)


def _traceback(suffix, attains):
    """The parts and total cost (in cell units) of each of n curves, from
    suffix[j][i, t], the least cost of grouping [i, m) of curve t into
    exactly j + 1 groups: ties between part counts go to the fewer parts,
    and a group [i, e] ends at the first e for which attains(t, i, prev,
    target) says that its total with prev[e + 1] is the level's entry, so
    ties between splits go to the lexicographically smallest split vector."""
    m, n = suffix[0].shape[0] - 1, suffix[0].shape[1]
    totals = np.array([s[0] for s in suffix])
    best = np.argmin(totals, axis=0)
    all_parts = []
    for t in range(n):
        parts, i = [], 0
        for j in range(best[t], 0, -1):
            e = i + int(np.argmax(attains(t, i, suffix[j - 1][:, t], suffix[j][i, t])))
            parts.append((i, e))
            i = e + 1
        parts.append((i, m - 1))
        all_parts.append(tuple(parts))
    return all_parts, totals[best, np.arange(n)]


def _finish(sigma, parts, centers, grouping):
    return Simplification(Curve(sigma.id, np.array(centers)), parts, float(grouping))


def _identity(sigma):
    parts = tuple((i, i) for i in range(sigma.complexity))
    return Simplification(sigma, parts, 0.0)


def _parts(ends):
    """The inclusive (start, end) index ranges of the parts ending at ends."""
    return tuple(zip([0, *(e + 1 for e in ends[:-1])], ends))


def _medoid_simplification(sigma, ell, p, restrict_to_range):
    """The best medoid grouping of sigma into at most ell parts, with its
    parts and grouping cost; a curve of complexity <= ell is its own
    simplification."""
    if ell < 1:
        raise ValidationError("ell must be >= 1")
    _check_p(p)
    if sigma.complexity <= ell:
        return _identity(sigma)
    ends, (count,), centers, (cost,) = _medoid_partitions(
        sigma.points[None], ell, p, restrict_to_range
    )
    curve = Curve(sigma.id, sigma.points[centers[0, :count]])
    return Simplification(curve, _parts(ends[0, :count].tolist()), float(cost))


def _medoid_simplifications(curves, ell, p, restrict_to_range, out):
    """Write the simplified curve of the best medoid grouping into at most
    ell parts of every curve of a set into out (n, w, d), curve i into
    out[i, :lengths[i]], and return the lengths; a curve of complexity
    <= ell is copied as it is.

    The curves of one complexity m are taken from the set
    (``_chunk_points``), in chunks of at most ``_BLOCK_CELLS`` cells times d
    per m x m table but at least ``_LANES`` curves, and each chunk runs
    through ``_medoid_partitions``; its centers are gathered from the
    chunk's points into out at once.
    """
    _check_p(p)
    d = curves.dimension
    lengths = curves.lengths.copy()
    for m in np.unique(curves.lengths).tolist():
        members = np.flatnonzero(curves.lengths == m)
        if m <= ell:
            out[members, :m] = _chunk_points(curves, members, m)
            continue
        block = max(_LANES, _BLOCK_CELLS // (m * m * d))
        for start in range(0, members.size, block):
            chunk = members[start : start + block]
            pts = _chunk_points(curves, chunk, m)
            _, counts, centers, _ = _medoid_partitions(pts, ell, p, restrict_to_range)
            lengths[chunk] = counts
            out[chunk] = pts[np.arange(chunk.size)[:, None], centers]
    return lengths


def _chunk_points(curves, chunk, m):
    """The points of the curves ``chunk`` of a set, m each, as an (n, m, d)
    array: a view of the set's buffer where the curves lie back to back, as
    curves of one length packed in order do, and a gathered copy
    otherwise."""
    first, d = curves.offsets[chunk[0]], curves.dimension
    if np.array_equal(curves.offsets[chunk], first + m * np.arange(chunk.size)):
        return curves.points[first : first + m * chunk.size].reshape(chunk.size, m, d)
    return curves.points[curves.offsets[chunk, None] + np.arange(m)]


def _medoid_partitions(pts, ell, p, restrict_to_range):
    """The best medoid grouping of each of the n curves pts (n, m, d) into
    at most ell parts, with the p-th powers scaled per curve for p > 32, as
    arrays (ends, counts, centers, costs): curve t has counts[t] parts,
    which end at ends[t, :counts[t]] (inclusive) and are centered at the
    vertices centers[t, :counts[t]]; the rest of both (n, ell) rows is 0.
    costs[t] is the grouping's rooted cost.

    The compiled ``medoid_partition`` does the arithmetic of
    ``_local_medoid_partition``, or without ``restrict_to_range`` of
    ``_medoid_cost_table`` and ``_partition``, with their operands, so its
    results have their bits; those run where the library cannot be built.
    It runs up to ``_LANES`` curves at once, and its scratch ``work`` holds
    their tables and interleaved points: 4 (m^2 + c + min(ell, m) (m + 1) +
    m d) doubles, c being m (one level's H) or m^2 (the range table).
    """
    n, m, d = pts.shape
    ends = np.zeros((n, ell), dtype=np.intp)
    centers = np.zeros((n, ell), dtype=np.intp)
    counts = np.empty(n, dtype=np.intp)
    lib = _kernels.library()
    if lib is None:
        batch = np.moveaxis(pts, 0, -1)
        table = _distance_table(batch, batch)
        scale = _pth_powers(table[1:, 1:], p)
        if restrict_to_range:
            all_parts, vertices, totals = _local_medoid_partition(table[1:, 1:], ell)
        else:
            cost, first = _medoid_cost_table(table[1:, 1:])
            all_parts, totals = _partition(cost, ell)
            vertices = [[first[a, b, t] for a, b in parts] for t, parts in enumerate(all_parts)]
        for t, parts in enumerate(all_parts):
            counts[t] = len(parts)
            ends[t, : len(parts)] = [b for _, b in parts]
            centers[t, : len(parts)] = vertices[t]
        return ends, counts, centers, _root(totals, p, scale)
    tables = m * m + (m if restrict_to_range else m * m) + min(ell, m) * (m + 1)
    work = np.empty(_LANES * (tables + m * d))
    costs = np.empty(n)
    lib.medoid_partition(
        pts.ctypes.data, n, m, d, p, ell, restrict_to_range, work.ctypes.data,
        ends.ctypes.data, counts.ctypes.data, centers.ctypes.data, costs.ctypes.data,
    )
    return ends, counts, centers, costs


def simplify_2approx_detailed(sigma: Curve, ell, p=1.0) -> Simplification:
    return _medoid_simplification(sigma, ell, p, restrict_to_range=True)


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
    (parts,), (total,) = _partition(cost[:, :, None], ell)
    centers = [pts[a : b + 1].mean(axis=0) for a, b in parts]
    return _finish(sigma, parts, centers, np.sqrt(total))


def simplify_exact_p2(sigma: Curve, ell) -> Curve:
    """Exact optimal ell-simplification under 2-DTW (centroid groups);
    the oracle for the 2-approximation bound."""
    return simplify_exact_p2_detailed(sigma, ell).curve


def simplify_set(curves, ell, p=1.0, method="two-approx"):
    """Apply one simplification method to every curve of a set, preserving
    order; returns a ``CurveSet`` over its own (n, min(ell, longest), d)
    block, simplification i in row i under the id of curve i.

    Every curve given is simplified; equal point sequences are collapsed by
    the clustering entry points, not here. A result depends on the points
    alone, so it has the bits of a one-curve call, and a curve of
    complexity <= ell keeps its points. The medoid methods ("two-approx",
    "vertex") simplify the curves of one complexity in one batch
    (``_medoid_simplifications``); "eps1" runs ``simplify_eps_p1`` on each
    curve. Raises ``ValidationError`` for an unknown method, for "eps1" at
    p != 1 and for ell < 1.
    """
    if method not in ("two-approx", "eps1", "vertex"):
        raise ValidationError(f"unknown simplification method {method!r}")
    if method == "eps1" and p != 1:
        raise ValidationError("method 'eps1' (geometric medians) needs p = 1")
    if ell < 1:
        raise ValidationError("ell must be >= 1")
    curves = as_curve_set(curves)
    n, d = len(curves), curves.dimension
    width = min(ell, int(curves.lengths.max(initial=0)))
    block = np.empty((n, width, d))
    if method != "eps1":
        lengths = _medoid_simplifications(curves, ell, p, method == "two-approx", block)
    else:
        lengths = np.empty(n, dtype=np.intp)
        for i, c in enumerate(curves):
            points = simplify_eps_p1(c, ell).points
            lengths[i] = points.shape[0]
            block[i, : lengths[i]] = points
    return CurveSet._of(
        block.reshape(n * width, d), width * np.arange(n, dtype=np.intp), lengths, curves.ids
    )
