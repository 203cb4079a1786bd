"""Sampled k-median framework over metric closures of subsamples, and its
curve-level wrapper producing a (factor, 4)-approximation with at most 4k
centers of complexity <= ell.

The two-level scheme samples a subset, clusters its metric closure, rechecks
the worst-served points, and recurses once. The framework works on a curve
list and index arrays into it. The inner level (``k_routine``) computes the
p-DTW matrix of its index set once and slices it for the sample's closure,
the closure distances that pick the recheck set, and the recheck set's
closure; the outer level (``k_median_sampled``) picks its recheck set by raw
p-DTW to the inner level's centers. Closures are only built on sampled
subsets, or on the whole set when the sample-size formula already covers it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve, ValidationError, new_rng, spawn_seeds
from .closure import distances_from_set, shortest_path_closure
from .dtw import assign_nearest, dtw_matrix, dtw_self_matrix
from .kmedian import FiniteMetricInstance, kmedian_local_search
from .simplify import simplify_set


@dataclass(frozen=True)
class SamplingParams:
    """Sample and recheck sizes of the two-level scheme.

    a and b are the constants hidden in the source construction's Theta(.);
    log k degenerates at k = 1 so ln(k+1) is used throughout.
    """

    a: int
    b: int
    s: int
    m_size: int

    @classmethod
    def for_instance(cls, n, k, eps):
        a = max(2, math.ceil((1.0 / eps) * math.sqrt(max(1.0, math.log(1.0 / eps)))))
        b = a * a
        lk = math.log(k + 1.0)
        s = min(n, math.ceil(a * math.sqrt(k * n * lk)))
        m_size = min(n, math.ceil(b * k * n * lk / s))
        return cls(a, b, s, m_size)


@dataclass(frozen=True)
class BicriteriaSolution:
    """At most 4k center curves with per-input assignments under p-DTW.

    ``simplified`` holds the ell-simplification of every input, in input
    order; the centers are members of it.
    """

    centers: tuple[Curve, ...]
    assignment: np.ndarray
    distances: np.ndarray
    cost: float
    k: int
    ell: int
    p: float
    simplified: tuple[Curve, ...]

    @property
    def k_hat(self):
        return len(self.centers)


def _solve_on_closure(base, k, eps, solver, seed):
    """Run the metric k-median solver on the closure of a p-DTW matrix;
    returns the sorted positions of its centers (at most k)."""
    n = base.shape[0]
    closure = shortest_path_closure(base) if n > 1 else np.zeros((1, 1))
    inst = FiniteMetricInstance(closure, np.ones(n), min(k, n))
    return np.sort(np.asarray(solver(inst, eps, seed).centers, dtype=np.intp))


def k_routine(curves, p, idx, k, eps, solver, seed):
    """Inner level over curves[idx]: sample, cluster the sample's closure,
    recluster the m_size worst points by closure distance. Returns <= 2k
    indices into ``curves``."""
    idx = np.asarray(idx, dtype=np.intp)
    n = idx.size
    params = SamplingParams.for_instance(n, k, eps)
    rng = new_rng(seed)
    seeds = spawn_seeds(seed, 3)
    base = dtw_self_matrix([curves[i] for i in idx], p)
    if n <= params.s:
        return idx[_solve_on_closure(base, k, eps, solver, seeds[0])]
    sample = np.sort(rng.choice(n, size=params.s, replace=False))
    c_prime = sample[_solve_on_closure(base[np.ix_(sample, sample)], k, eps, solver, seeds[0])]
    dists = distances_from_set(base, c_prime)
    order = np.lexsort((np.arange(n), -dists))
    recheck = np.sort(order[: params.m_size])
    c_second = recheck[
        _solve_on_closure(base[np.ix_(recheck, recheck)], k, eps, solver, seeds[1])
    ]
    return np.unique(idx[np.concatenate([c_prime, c_second])])


def k_median_sampled(curves, p, idx, k, eps, solver, seed):
    """Outer level: like k_routine but recursing into it, with the recheck
    set selected by raw distances. Returns <= 4k indices into ``curves``."""
    idx = np.asarray(idx, dtype=np.intp)
    n = idx.size
    params = SamplingParams.for_instance(n, k, eps)
    rng = new_rng(seed)
    seeds = spawn_seeds(seed, 3)
    if n <= params.s:
        return k_routine(curves, p, idx, k, eps, solver, seeds[0])
    sample = np.sort(rng.choice(n, size=params.s, replace=False))
    c_prime = k_routine(curves, p, idx[sample], k, eps, solver, seeds[0])
    raw = dtw_matrix([curves[i] for i in idx], [curves[j] for j in c_prime], p).min(axis=1)
    order = np.lexsort((np.arange(n), -raw))
    m_idx = idx[np.sort(order[: params.m_size])]
    c_second = k_routine(curves, p, m_idx, k, eps, solver, seeds[1])
    return np.unique(np.concatenate([c_prime, c_second]))


def bicriteria_klmedian(
    T,
    k,
    ell,
    p=1.0,
    eps=0.5,
    seed=0,
    repetitions=3,
    solver=kmedian_local_search,
) -> BicriteriaSolution:
    """2-approximate ell-simplifications followed by the sampled k-median
    framework on their p-DTW; centers are simplification curves, assignments
    and cost are evaluated on the original inputs.

    The whole sampled run is repeated ``repetitions`` times (fresh derived
    seeds) and the cheapest outcome kept.
    """
    curves = list(T)
    n = len(curves)
    if n < 1:
        raise ValidationError("need at least one curve")
    if k < 1 or ell < 1:
        raise ValidationError("k and ell must be >= 1")
    simplified = tuple(simplify_set(curves, ell, p))
    best = None
    for rep_seed in spawn_seeds(seed, repetitions):
        centers_idx = k_median_sampled(simplified, p, np.arange(n), k, eps, solver, rep_seed)
        center_curves = tuple(simplified[i] for i in centers_idx)
        assignment, distances = assign_nearest(curves, center_curves, p)
        cost = float(distances.sum())
        if best is None or cost < best.cost:
            best = BicriteriaSolution(
                center_curves, assignment, distances, cost, k, ell, p, simplified
            )
    return best
