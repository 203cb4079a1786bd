"""Weighted k-median in an explicit finite (semi)metric.

A single-swap local search from a farthest-point initialization stands in for
the heavier approximation algorithms cited for this role; a brute-force
enumerator serves as the exact oracle at desk scale. Centers are medoids
(instance points).

Each round of the local search scores every swap of a center r for a
non-center a. With base_r[j] the distance from point j to the nearest
center other than r, the swap costs sum_j w_j * min(base_r[j], D[a, j]),
added in index order from 0.0. The whole search, every round of it, is one
call of ``kmedian_search`` in the package's compiled library (``_kernels``).
Each round there finds each point's nearest and second-nearest center (the
nearest is the first sorted center at the least distance, as a stable
argsort orders them), scores the swaps of four centers at once, one per
vector lane, reading eight candidate rows of ``dist`` in place per pass,
and applies the swap of the first r whose least cost, at its lowest
candidate, beats the best so far, unless it fails the threshold test. A
tie in the minimum takes base_r[j], the same value. Two parts stay in
numpy, whose bits C would have to copy: the farthest-point start, drawn
from numpy's rng, and the starting cost and final solution of
``_assign``, whose ``np.sum`` adds pairwise. Where the library cannot be
built or the host has no AVX2, ``_rounds_reference`` runs the same rounds
in numpy, with a cumulative sum per swap, and gives the same centers; the
tests pin the two to each other. The compiled search took
random planar instances at k = 4 from 267 to 116 us at n = 40, 304 to
125 us at n = 55, 766 to 323 us at n = 200 and 8.8 to 4.8 ms at n = 1000
(medians, 2-core x86-64, gcc 12.2), against a Python loop of rounds that
called a compiled scalar swap-cost loop.

No BLAS call is on this path. As a matrix-vector product per center, the
costs run on a second OpenBLAS thread from about 680 points on. On a
2-core x86-64 host a 999 x 1000 product took 8.0 ms, against 0.39 ms with
one BLAS thread, and numpy work right after it ran 2.5x slower, as if the
idle BLAS worker kept spinning on the other core. At n = 1000 the search
took 0.14 s with those products and about 0.01 s with the compiled loop.
Setting the BLAS thread count from this package would change the user's
whole process.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from . import _kernels
from .curves import ResourceGuardError, ValidationError, new_rng

MAX_BRUTE_SUBSETS = 10**6

# the centers that the compiled kmedian_search scores at once, one per vector lane
_LANES = 4


@dataclass(frozen=True)
class FiniteMetricInstance:
    """Symmetric nonnegative distance matrix, inf allowed and NaN not, with
    positive finite point weights.

    A row-major float64 ``dist`` is kept as it is, not copied: the
    pipeline's closure buffer becomes the instance. NaN, negative and -inf
    entries are rejected by one test of ``dist.min()``, which a NaN
    anywhere makes NaN and a negative entry negative, so no n x n boolean
    array is built; the symmetry is not checked."""

    dist: np.ndarray
    weights: np.ndarray
    k: int

    def __post_init__(self):
        # the compiled kmedian_search reads both row-major and contiguous
        dist = np.ascontiguousarray(self.dist, dtype=np.float64)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "weights", weights)
        n = dist.shape[0]
        if dist.ndim != 2 or dist.shape != (n, n):
            raise ValidationError("dist must be a square matrix")
        if weights.shape != (n,):
            raise ValidationError("weights must match the instance size")
        if not np.all((weights > 0) & (weights < np.inf)):
            raise ValidationError("weights must be positive and finite")
        # inf is allowed: an isolated point is inf away from the others
        if not dist.min(initial=np.inf) >= 0:  # min propagates NaN
            raise ValidationError("dist must be non-negative, not NaN")
        if self.k < 1:
            raise ValidationError("k must be >= 1")
        if self.k > n:
            raise ValidationError(f"k={self.k} exceeds the instance size {n}")

    @property
    def n(self):
        return self.dist.shape[0]


@dataclass(frozen=True)
class MedianSolution:
    """k medoid indices, per-point nearest-center assignment, weighted cost."""

    centers: tuple[int, ...]
    assignment: np.ndarray
    cost: float


def _assign(inst, centers):
    """Nearest-center assignment; ties go to the lowest center index."""
    order = sorted(centers)
    rows = inst.dist[order]
    pos = np.argmin(rows, axis=0)
    assignment = np.asarray(order, dtype=np.intp)[pos]
    cost = float(np.sum(inst.weights * rows[pos, np.arange(inst.n)]))
    return assignment, cost


def solution_for_centers(inst, centers) -> MedianSolution:
    assignment, cost = _assign(inst, centers)
    return MedianSolution(tuple(sorted(centers)), assignment, cost)


def kmedian_brute(inst: FiniteMetricInstance) -> MedianSolution:
    """Exact optimum by enumeration of all center subsets (test oracle)."""
    n, k = inst.n, inst.k
    if math.comb(n, k) > MAX_BRUTE_SUBSETS:
        raise ResourceGuardError(f"C({n},{k}) exceeds {MAX_BRUTE_SUBSETS} subsets")
    best = None
    for centers in combinations(range(n), k):
        rows = inst.dist[list(centers)]
        cost = float(np.sum(inst.weights * rows.min(axis=0)))
        if best is None or cost < best[0]:
            best = (cost, centers)
    return solution_for_centers(inst, best[1])


def _farthest_point_init(inst, rng):
    """k distinct centers: a random first one, then each time the non-center
    farthest from the chosen ones (the lowest index among ties)."""
    centers = [int(rng.integers(inst.n))]
    nearest = inst.dist[centers[0]].copy()
    nearest[centers[0]] = -np.inf
    while len(centers) < inst.k:
        nxt = int(np.argmax(nearest))
        centers.append(nxt)
        np.minimum(nearest, inst.dist[nxt], out=nearest)
        nearest[nxt] = -np.inf
    return centers


def _swap_arguments(inst, centers):
    """The non-centers, and base[r]: each point's distance to the nearest
    of the sorted ``centers`` other than centers[r]."""
    rows = inst.dist[centers]
    order = np.argsort(rows, axis=0, kind="stable")
    idx = np.arange(inst.n)
    d1 = rows[order[0], idx]
    d2 = rows[order[1], idx] if len(centers) > 1 else np.full(inst.n, np.inf)
    in_centers = np.zeros(inst.n, dtype=bool)
    in_centers[centers] = True
    cand = np.flatnonzero(~in_centers)
    return cand, np.where(order[0] == np.arange(len(centers))[:, None], d2, d1)


def _rounds_reference(inst, centers, cost, threshold):
    """The rounds of the compiled ``kmedian_search`` in numpy, with its bits,
    from the sorted ``centers`` at ``cost``; returns the last centers.

    costs[r, t] is the sum of min(base[r], dist[cand[t]]) * w in index
    order, a cumulative sum. The swap applied is that of the first r whose
    first argmin beats the best so far; then the threshold test."""
    n, k = inst.n, inst.k
    for _ in range(10 * n * k):
        cand, base = _swap_arguments(inst, centers)
        rows = inst.dist[cand]
        trial = np.empty_like(rows)
        costs = np.empty((k, len(cand)))
        for r, base_r in enumerate(base):
            np.minimum(base_r, rows, out=trial)
            trial *= inst.weights
            costs[r] = np.cumsum(trial, axis=1, out=trial)[:, -1]

        best_new, best_swap = cost, None
        for r_pos in range(k):
            a_pos = int(np.argmin(costs[r_pos]))
            if costs[r_pos, a_pos] < best_new:
                best_new = float(costs[r_pos, a_pos])
                best_swap = (r_pos, int(cand[a_pos]))

        if best_swap is None or best_new > threshold * cost:
            break
        r_pos, a = best_swap
        centers = sorted(centers[:r_pos] + centers[r_pos + 1 :] + [a])
        cost = best_new
    return centers


def kmedian_local_search(inst: FiniteMetricInstance, eps=0.5, seed=0) -> MedianSolution:
    """Single-swap local search from a farthest-point initialization.

    A swap is applied only if it drops the cost to at most (1 - eps/(8k))
    times the current one; stops at such a local optimum or after 10*n*k
    applied swaps. Every round scores all k * (n - k) swaps, each cost a
    weighted sum in index order from 0.0; all rounds run in one compiled
    call (see the module docstring). Deterministic for a fixed seed, with
    the same result where the library cannot be built.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    n, k = inst.n, inst.k
    if k == n:
        return solution_for_centers(inst, range(n))
    rng = new_rng(seed)
    centers = sorted(_farthest_point_init(inst, rng))
    threshold = 1.0 - eps / (8.0 * k)

    _, cost = _assign(inst, centers)
    lib = _kernels.library()
    if lib is None:
        return solution_for_centers(inst, _rounds_reference(inst, centers, cost, threshold))
    # the scratch of kmedian_search, with k rounded up to whole vectors
    lanes = -(-k // _LANES) * _LANES
    found = np.array(centers, dtype=np.intp)
    work = np.empty(lanes * (n + 1))
    index = np.empty(n - k + lanes, dtype=np.intp)
    lib.kmedian_search(
        inst.dist.ctypes.data, n, inst.weights.ctypes.data, found.ctypes.data, k, cost,
        threshold, 10 * n * k, work.ctypes.data, index.ctypes.data,
    )
    return solution_for_centers(inst, found.tolist())
