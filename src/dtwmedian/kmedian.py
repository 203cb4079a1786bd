"""Weighted k-median in an explicit finite (semi)metric.

A single-swap local search from a farthest-point initialization stands in for
the heavier approximation algorithms cited for this role; a brute-force
enumerator serves as the exact oracle at desk scale. Centers are medoids
(instance points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .curves import ResourceGuardError, ValidationError, new_rng

MAX_BRUTE_SUBSETS = 10**6


@dataclass(frozen=True)
class FiniteMetricInstance:
    """Symmetric nonnegative distance matrix with positive point weights."""

    dist: np.ndarray
    weights: np.ndarray
    k: int

    def __post_init__(self):
        dist = np.asarray(self.dist, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "dist", dist)
        object.__setattr__(self, "weights", weights)
        n = dist.shape[0]
        if dist.ndim != 2 or dist.shape != (n, n):
            raise ValidationError("dist must be a square matrix")
        if weights.shape != (n,):
            raise ValidationError("weights must match the instance size")
        if np.any(weights <= 0):
            raise ValidationError("weights must be positive")
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


def kmedian_local_search(inst: FiniteMetricInstance, eps=0.5, seed=0) -> MedianSolution:
    """Single-swap local search from a farthest-point initialization.

    A swap is applied only if it drops the cost to at most (1 - eps/(8k))
    times the current one; stops at such a local optimum or after 10*n*k
    applied swaps. Deterministic for a fixed seed.
    """
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must lie in (0, 1)")
    n, k = inst.n, inst.k
    if k == n:
        return solution_for_centers(inst, range(n))
    rng = new_rng(seed)
    centers = sorted(_farthest_point_init(inst, rng))
    threshold = 1.0 - eps / (8.0 * k)
    w = inst.weights

    _, cost = _assign(inst, centers)
    for _ in range(10 * n * k):
        center_rows = inst.dist[centers]
        order = np.argsort(center_rows, axis=0, kind="stable")
        idx = np.arange(n)
        d1 = center_rows[order[0], idx]
        d2 = center_rows[order[1], idx] if k > 1 else np.full(n, np.inf)
        c1_pos = order[0]

        in_centers = np.zeros(n, dtype=bool)
        in_centers[centers] = True
        cand = np.flatnonzero(~in_centers)
        rows = inst.dist[cand]
        trial = np.empty_like(rows)

        best_new, best_swap = cost, None
        for r_pos in range(k):
            base = np.where(c1_pos == r_pos, d2, d1)
            np.minimum(base[None, :], rows, out=trial)
            costs = trial @ w
            a_pos = int(np.argmin(costs))
            if costs[a_pos] < best_new:
                best_new = float(costs[a_pos])
                best_swap = (r_pos, int(cand[a_pos]))

        if best_swap is None or best_new > threshold * cost:
            break
        r_pos, a = best_swap
        centers = sorted(centers[:r_pos] + centers[r_pos + 1 :] + [a])
        cost = best_new
    return solution_for_centers(inst, centers)
