"""Sampled k-median framework over metric closures of subsamples, and its
curve-level wrapper producing a (factor, 4)-approximation with at most 4k
centers of complexity <= ell.

The two-level scheme samples a subset, clusters its metric closure, rechecks
the worst-served points, and recurses once. The framework works on a packed
curve store (``dtw.Packed``) and index arrays into it, which may repeat an
index; it returns distinct indices, and builds no curve list: the inner
level (``k_routine``) computes the p-DTW matrix of its index set once
(``dtw._self_values``) and slices it for the sample's closure, the closure
distances that pick the recheck set, and the recheck set's closure; the
outer level (``k_median_sampled``) picks its recheck set by raw p-DTW to
the inner level's centers (``dtw._cross_values``). Closures are only built
on sampled subsets, or on the whole set when the sample-size formula
already covers it.

A call prepares once (``_prepare``): it collapses equal inputs
(``distinct_curves``), ell-simplifies each distinct sequence, and packs the
sequences and their simplifications into one store, with each sequence's
label among the distinct simplified point sequences, which the pipeline's
final instance reads. Each repetition reruns only the seeded part
(``_bicriteria_run``) on it, and builds a ``Curve`` only for each of its at
most 4k centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import Curve, ValidationError, distinct_curves, new_rng, spawn_seeds
from .closure import _close, distances_from_set
from .dtw import Packed, _cross_values, _dimension, _nearest, _self_values
from .kmedian import FiniteMetricInstance, kmedian_local_search
from .simplify import _block_width, _simplified_block


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
    matrix, a fresh array of ``_self_values`` or a slice of one, which is
    closed in place; returns the sorted positions of its centers (at most
    k)."""
    n = base.shape[0]
    inst = FiniteMetricInstance(_close(base), np.ones(n), min(k, n))
    return np.sort(np.asarray(kmedian_local_search(inst, eps, seed).centers, dtype=np.intp))


def k_routine(store, p, idx, k, eps, seed):
    """Inner level over the curves idx of a packed store: sample, cluster the
    sample's closure, recluster the m_size worst points by closure distance.
    Returns <= 2k indices into the store."""
    idx = np.asarray(idx, dtype=np.intp)
    n = idx.size
    params = SamplingParams.for_instance(n, k, eps)
    rng = new_rng(seed)
    seeds = spawn_seeds(seed, 2)
    base = _self_values(store, idx, p)
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
    set selected by raw distances. Returns <= 4k indices into the store."""
    idx = np.asarray(idx, dtype=np.intp)
    n = idx.size
    params = SamplingParams.for_instance(n, k, eps)
    rng = new_rng(seed)
    seeds = spawn_seeds(seed, 2)
    if n <= params.s:
        return k_routine(store, p, idx, k, eps, seeds[0])
    sample = np.sort(rng.choice(n, size=params.s, replace=False))
    c_prime = k_routine(store, p, idx[sample], k, eps, seeds[0])
    raw = _cross_values(store, idx, c_prime, p).min(axis=1)
    order = np.lexsort((np.arange(n), -raw))
    m_idx = idx[np.sort(order[: params.m_size])]
    c_second = k_routine(store, p, m_idx, k, eps, seeds[1])
    return np.unique(np.concatenate([c_prime, c_second]))


@dataclass(frozen=True)
class _Prepared:
    """A call's seed-free part. ``store`` packs the u distinct input
    sequences, then their ell-simplifications: sequence j is curve j and its
    simplification curve u + j, under ``ids[j]``, the id of its first input.
    ``inverse`` gives each input's sequence, ``labels`` each sequence's
    simplification among the distinct simplified point sequences (in order
    of first occurrence), and ``m`` the inputs' largest complexity."""

    store: Packed
    ids: tuple[str, ...]
    inverse: np.ndarray
    labels: np.ndarray
    m: int

    def simplified(self, j):
        """The simplification of sequence j, as a curve."""
        i = len(self.ids) + j
        start = self.store.offsets[i]
        return Curve(self.ids[j], self.store.points[start : start + self.store.lengths[i]])


def _prepare(curves, ell, p, method="two-approx"):
    """``distinct_curves`` of the inputs and one ell-simplification per
    sequence, packed into one store (``_Prepared``). The store's points are
    allocated once: the sequences are concatenated into its head, and the
    simplifications are written into its tail, viewed as a (u, width, d)
    block."""
    distinct, inverse = distinct_curves(curves)
    lengths = np.array([c.complexity for c in distinct], dtype=np.intp)
    u, d = lengths.size, _dimension(distinct)
    width = _block_width(lengths, ell, p, method)
    start = int(lengths.sum())
    points = np.empty((start + u * width, d))
    np.concatenate([c.points for c in distinct], out=points[:start])
    offsets = np.cumsum(lengths) - lengths
    block = points[start:].reshape(u, width, d)
    simple = _simplified_block(distinct, Packed(points, offsets, lengths), ell, p, method, block)
    store = Packed(
        points,
        np.concatenate([offsets, start + width * np.arange(u, dtype=np.intp)]),
        np.concatenate([lengths, simple]),
    )
    # equal simplified points have equal bytes: each simplification is made of
    # a ``Curve``'s points, which are finite and hold no -0.0
    raw, point = block.tobytes(), d * block.itemsize
    first: dict[bytes, int] = {}
    labels = [
        first.setdefault(raw[j * width * point : (j * width + length) * point], len(first))
        for j, length in enumerate(simple.tolist())
    ]
    ids = tuple(c.id for c in distinct)
    m = int(lengths.max())
    return _Prepared(store, ids, inverse, np.array(labels, dtype=np.intp), m)


def _bicriteria_run(prepared, k, ell, p, eps, seed):
    """One seeded run on a prepared call: the framework draws the n inputs as
    indices of their simplifications, as it would draw ``np.arange(n)``."""
    store, u, inverse = prepared.store, len(prepared.ids), prepared.inverse
    centers = k_median_sampled(store, p, u + inverse, k, eps, seed)
    assignment, distances = _nearest(store, np.arange(u), centers, p)
    assignment, distances = assignment[inverse], distances[inverse]
    center_curves = tuple(prepared.simplified(i - u) for i in centers.tolist())
    return BicriteriaSolution(center_curves, assignment, distances, float(distances.sum()), ell, p)


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
    curves = list(T)
    if not curves:
        raise ValidationError("need at least one curve")
    if k < 1 or ell < 1 or repetitions < 1:
        raise ValidationError("k, ell and repetitions must be >= 1")
    if not 0.0 < eps < 1.0:
        raise ValidationError("eps must lie in (0, 1)")
    prepared = _prepare(curves, ell, p)
    runs = (_bicriteria_run(prepared, k, ell, p, eps, s) for s in spawn_seeds(seed, repetitions))
    return min(runs, key=lambda sol: sol.cost)
