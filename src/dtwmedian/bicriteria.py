"""Sampled k-median framework over metric closures of subsamples, and its
curve-level wrapper producing a (factor, 4)-approximation with at most 4k
centers of complexity <= ell.

The two-level scheme samples a subset, clusters its metric closure, rechecks
the worst-served points, and recurses once. The framework works on a curve
set (``curves.CurveSet``) and index arrays into it, which may repeat an
index; it returns distinct indices. The inner level (``k_routine``)
computes the p-DTW matrix of its selection once (``dtw_self_matrix``) and
slices it for the sample's closure, the closure distances that pick the
recheck set, and the recheck set's closure; the outer level
(``k_median_sampled``) picks its recheck set by raw p-DTW to the inner
level's centers (``dtw_matrix``). Closures are only built on sampled
subsets, or on the whole set when the sample-size formula already covers
it.

A call prepares once (``_prepare``): it collapses equal inputs
(``distinct_curves``, a selection of the input set) and ell-simplifies each
distinct sequence (``simplify_set``), with each sequence's label among the
distinct simplified point sequences, which the pipeline's final instance
reads. Each repetition reruns only the seeded part (``_bicriteria_run``)
on it, and builds a ``Curve`` only for each of its at most 4k centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import (
    Curve,
    CurveSet,
    ValidationError,
    as_curve_set,
    distinct_curves,
    new_rng,
    spawn_seeds,
)
from .closure import _close, distances_from_set
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
    """At most 4k center curves with per-input assignments under p-DTW; the
    centers are simplifications of inputs, with pairwise different points."""

    centers: tuple[Curve, ...]
    assignment: np.ndarray
    distances: np.ndarray
    cost: float
    ell: int
    p: float

    @property
    def k_hat(self):
        return len(self.centers)


def _solve_on_closure(base, k, eps, seed):
    """Run the metric k-median local search on the closure of a p-DTW
    matrix, a fresh array of ``dtw_self_matrix`` or a slice of one, which
    is closed in place; returns the sorted positions of its centers (at
    most k)."""
    n = base.shape[0]
    inst = FiniteMetricInstance(_close(base), np.ones(n), min(k, n))
    return np.sort(np.asarray(kmedian_local_search(inst, eps, seed).centers, dtype=np.intp))


def k_routine(store, p, idx, k, eps, seed):
    """Inner level over the curves idx of a curve set: sample, cluster the
    sample's closure, recluster the m_size worst points by closure distance.
    Returns <= 2k indices into the set."""
    idx = np.asarray(idx, dtype=np.intp)
    n = idx.size
    params = SamplingParams.for_instance(n, k, eps)
    rng = new_rng(seed)
    seeds = spawn_seeds(seed, 2)
    base = dtw_self_matrix(store.take(idx), p)
    if n <= params.s:
        return np.unique(idx[_solve_on_closure(base, k, eps, seeds[0])])
    sample = np.sort(rng.choice(n, size=params.s, replace=False))
    c_prime = sample[_solve_on_closure(base[np.ix_(sample, sample)], k, eps, seeds[0])]
    dists = distances_from_set(base, c_prime)
    order = np.lexsort((np.arange(n), -dists))
    recheck = np.sort(order[: params.m_size])
    c_second = recheck[_solve_on_closure(base[np.ix_(recheck, recheck)], k, eps, seeds[1])]
    return np.unique(idx[np.concatenate([c_prime, c_second])])


def k_median_sampled(store, p, idx, k, eps, seed):
    """Outer level: like k_routine but recursing into it, with the recheck
    set selected by raw distances. Returns <= 4k indices into the set."""
    idx = np.asarray(idx, dtype=np.intp)
    n = idx.size
    params = SamplingParams.for_instance(n, k, eps)
    rng = new_rng(seed)
    seeds = spawn_seeds(seed, 2)
    if n <= params.s:
        return k_routine(store, p, idx, k, eps, seeds[0])
    sample = np.sort(rng.choice(n, size=params.s, replace=False))
    c_prime = k_routine(store, p, idx[sample], k, eps, seeds[0])
    raw = dtw_matrix(store.take(idx), store.take(c_prime), p).min(axis=1)
    order = np.lexsort((np.arange(n), -raw))
    m_idx = idx[np.sort(order[: params.m_size])]
    c_second = k_routine(store, p, m_idx, k, eps, seeds[1])
    return np.unique(np.concatenate([c_prime, c_second]))


@dataclass(frozen=True)
class _Prepared:
    """A call's seed-free part: ``distinct``, the u distinct input sequences
    (a selection of the input set, each sequence's first input), and
    ``simplified``, their ell-simplifications under the same ids.
    ``inverse`` gives each input's sequence, ``labels`` each sequence's
    simplification among the distinct simplified point sequences (in order
    of first occurrence), and ``m`` the inputs' largest complexity."""

    distinct: CurveSet
    inverse: np.ndarray
    simplified: CurveSet
    labels: np.ndarray
    m: int


def _prepare(curves, ell, p, method="two-approx"):
    """``distinct_curves`` of the input set and one ell-simplification per
    sequence (``simplify_set``), with the labels of the simplifications
    (``distinct_curves`` again)."""
    distinct, inverse = distinct_curves(curves)
    simplified = simplify_set(distinct, ell, p, method)
    labels = distinct_curves(simplified)[1]
    return _Prepared(distinct, inverse, simplified, labels, int(distinct.lengths.max()))


def _bicriteria_run(prepared, k, ell, p, eps, seed):
    """One seeded run on a prepared call: the framework draws the n inputs as
    indices of their simplifications, as it would draw ``np.arange(n)``."""
    simplified, inverse = prepared.simplified, prepared.inverse
    centers = simplified.take(k_median_sampled(simplified, p, inverse, k, eps, seed))
    assignment, distances = assign_nearest(prepared.distinct, centers, p)
    assignment, distances = assignment[inverse], distances[inverse]
    return BicriteriaSolution(
        tuple(centers), assignment, distances, float(distances.sum()), ell, p
    )


def bicriteria_klmedian(
    T,
    k,
    ell,
    p=1.0,
    eps=0.5,
    seed=0,
    repetitions=3,
) -> BicriteriaSolution:
    """2-approximate ell-simplifications followed by the sampled k-median
    framework on their p-DTW; centers are simplification curves, assignments
    and cost are evaluated on the original inputs.

    Equal sequences are simplified once per call (``_prepare``); the run is
    repeated ``repetitions`` times with derived seeds, keeping the first cheapest.
    """
    curves = as_curve_set(T)
    if not len(curves):
        raise ValidationError("need at least one curve")
    if k < 1 or ell < 1 or repetitions < 1:
        raise ValidationError("k, ell and repetitions must be >= 1")
    if not 0.0 < eps < 1.0:
        raise ValidationError("eps must lie in (0, 1)")
    prepared = _prepare(curves, ell, p)
    runs = (_bicriteria_run(prepared, k, ell, p, eps, s) for s in spawn_seeds(seed, repetitions))
    return min(runs, key=lambda sol: sol.cost)
