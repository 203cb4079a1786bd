"""End-to-end (k,l)-median: bicriteria seeding, sensitivity sampling of the
simplified inputs, metric closure and weighted k-median, plus the small-n
route that clusters the closure of the whole simplified set directly. Each
call packs its input into one curve set (``curves.CurveSet``) unless it is
one, collapses equal inputs and ell-simplifies each sequence once, for all
its repetitions (``bicriteria._prepare``), and every later stage is a
public function called on selections of those sets: the coreset route's
sample is a ``coreset_sample`` of the per-input simplifications. Both
routes share one back half: one weighted point per distinct simplified
curve (the labels of ``_prepare``, in order of first entry), its
``build_closure``, the k-median, and the nearest-center assignment of each
sequence (``assign_nearest``), which all its inputs get.

The accuracy knob follows the source construction: the caller's eps is split
as eps' = eps/46 for the coreset size and the final k-median. The bicriteria
stage needs only a solution of known factor alpha: it runs at min(eps, 0.999),
with alpha computed at that accuracy (at eps' its samples would cover every
input). The pipeline repeats end-to-end ``repetitions`` times with derived
seeds and keeps the cheapest clustering.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .bicriteria import _bicriteria_run, _prepare
from .closure import build_closure
from .coreset import (
    bicriteria_alpha_factor,
    coreset_sample,
    coreset_size,
    sensitivity_bounds,
)
from .curves import (
    Curve,
    PipelineConfig,
    ValidationError,
    as_curve_set,
    curve_record,
    spawn_seeds,
)
# dtw_matrix stays bound here: the benchmark's tracer test reads pipeline.dtw_matrix
from .dtw import assign_nearest, dtw_matrix  # noqa: F401
from .kmedian import FiniteMetricInstance, kmedian_local_search


@dataclass(frozen=True)
class ClusteringResult:
    """Exactly k centers of complexity <= ell with a full-input assignment.

    Each center is the ell-simplification of an input curve and carries the
    id of the first input with that input's points; ``timings`` holds the
    stage wall times of the repetition that produced it, with the call's one
    ``"simplify"``, and ``config`` the parameters the route used, by name.
    """

    centers: tuple[Curve, ...]
    assignment: np.ndarray
    distances: np.ndarray
    cost: float
    timings: dict
    config: dict
    bicriteria_cost: float | None = None

    def to_dict(self):
        return {
            "config": dict(self.config),
            "timings": dict(self.timings),
            "centers": [curve_record(c) for c in self.centers],
            "assignment": self.assignment.tolist(),
            "cost": self.cost,
            "bicriteria_cost": self.bicriteria_cost,
        }


@contextmanager
def _stage(timings, name):
    start = time.perf_counter()
    yield
    timings[name] = timings.get(name, 0.0) + (time.perf_counter() - start)


def _cluster_simplified(prepared, entries, weights, k, p, eps, seed, timings):
    """The back half of both routes, one weighted instance over ``entries``,
    a selection of ``prepared.simplified`` (with repeats): the entries with
    equal simplified points become one point, in order of first entry,
    their weights summed in entry order; weighted k-median on its closure;
    then the nearest-center assignment of the distinct inputs, given to
    every input by ``inverse``. Returns (centers, assignment, distances) per
    input.

    An entry's label is that of the row of ``prepared.simplified`` it
    selects, found by its offset: ``simplify_set`` lays its rows out one
    after another, so their offsets increase. The local search returns
    min(k, n) centers for n points, all of them when n < k; the missing
    slots then repeat the first center, so there are always exactly k."""
    with _stage(timings, "closure"):
        rows = np.searchsorted(prepared.simplified.offsets, entries.offsets)
        labels = prepared.labels[rows]
        _, first, which = np.unique(labels, return_index=True, return_inverse=True)
        order = np.argsort(first)  # the points in order of first entry
        points = entries.take(first[order])
        weights = np.bincount(np.argsort(order)[which], weights=weights)
        dist = build_closure(points, p).dist
    with _stage(timings, "kmedian"):
        inst = FiniteMetricInstance(dist, weights, min(k, len(points)))
        sol = kmedian_local_search(inst, eps=eps, seed=seed)
        slots = sol.centers + (sol.centers[0],) * (k - len(sol.centers))
        centers = points.take(slots)
    with _stage(timings, "assignment"):
        assignment, distances = assign_nearest(prepared.distinct, centers, p)
    return tuple(centers), assignment[prepared.inverse], distances[prepared.inverse]


def _coreset_stages(curves, prepared, cfg, seed, timings):
    """Bicriteria and sensitivities of the input set on a prepared call (the
    shared front of the pipeline); returns (bicriteria, profile, size
    report, sample size, sampling seed)."""
    m = prepared.m
    eps_prime = cfg.eps / 46.0
    eps_bicrit = min(cfg.eps, 0.999)  # kmedian_local_search needs eps < 1
    seeds = spawn_seeds(seed, 2)
    run_seed = spawn_seeds(seeds[0], 1)[0]  # as bicriteria_klmedian(seed=seeds[0], repetitions=1)
    with _stage(timings, "bicriteria"):
        bicrit = _bicriteria_run(prepared, cfg.k, cfg.ell, cfg.p, eps_bicrit, run_seed)
    alpha = bicriteria_alpha_factor(m, cfg.ell, cfg.p, eps_bicrit)
    with _stage(timings, "sensitivity"):
        profile = sensitivity_bounds(curves, bicrit, alpha)
    report = coreset_size(
        len(curves),
        m,
        cfg.ell,
        curves.dimension,
        cfg.k,
        cfg.p,
        eps_prime,
        cfg.delta,
        alpha,
        profile.Lambda,
        cfg.sample_constant,
    )
    size = cfg.size_override or report.sample_size
    return bicrit, profile, report, size, seeds[1]


def kl_median(T, cfg: PipelineConfig) -> ClusteringResult:
    """Full pipeline: coreset stages, a sensitivity sample of the call's
    simplified inputs, metric closure, weighted k-median at
    eps' = eps/46, exactly k final centers.

    Repeated draws, and draws of equal simplified points, become one
    weighted point of the final instance, with the weights summed in draw
    order."""
    curves = as_curve_set(T)
    n = len(curves)
    if n < cfg.k:
        raise ValidationError(f"need at least k={cfg.k} curves, got {n}")
    preparation: dict = {}
    with _stage(preparation, "simplify"):
        prepared = _prepare(curves, cfg.ell, cfg.p)
    per_input = prepared.simplified.take(prepared.inverse)
    best = None
    for rep_seed in spawn_seeds(cfg.seed, cfg.repetitions):
        timings = dict(preparation)
        seeds = spawn_seeds(rep_seed, 2)
        bicrit, profile, _, size, sample_seed = _coreset_stages(
            curves, prepared, cfg, seeds[0], timings
        )
        with _stage(timings, "sampling"):
            sample = coreset_sample(per_input, profile, size, sample_seed)
        centers, assignment, distances = _cluster_simplified(
            prepared, sample.curves, sample.weights, cfg.k, cfg.p, cfg.eps / 46.0,
            seeds[1], timings,
        )
        total = float(distances.sum())
        if best is None or total < best.cost:
            best = ClusteringResult(
                centers, assignment, distances, total, timings, asdict(cfg),
                bicriteria_cost=bicrit.cost,
            )
    return best


def cluster_via_closure(T, k, ell, p=1.0, eps=0.5, method="two-approx", seed=0) -> ClusteringResult:
    """Small-n route: simplify everything, build the full closure, run the
    metric k-median on it, and map centers back to the input.

    The route simplifies each distinct point sequence (``distinct_curves``)
    once and weights it by its number of inputs. Duplicates are exactly 0
    apart in the closure, so this is the same weighted k-median instance
    with fewer points. Every input gets the assignment and distance of its
    sequence, bitwise, and a center carries the id of its sequence's first
    input."""
    curves = as_curve_set(T)
    n = len(curves)
    if n < k:
        raise ValidationError(f"need at least k={k} curves, got {n}")
    cfg = PipelineConfig(k=k, ell=ell, p=p, eps=eps, seed=seed)  # validates them
    # the route runs once on every curve: no delta, sample size or repetitions
    config = dict(k=cfg.k, ell=cfg.ell, p=cfg.p, eps=cfg.eps, method=method, seed=cfg.seed)
    timings: dict = {}
    with _stage(timings, "simplify"):
        prepared = _prepare(curves, ell, p, method)
    centers, assignment, distances = _cluster_simplified(
        prepared, prepared.simplified, np.bincount(prepared.inverse), k, p,
        min(eps, 0.999), seed, timings,
    )
    return ClusteringResult(centers, assignment, distances, float(distances.sum()), timings, config)


def emit_coreset_only(T, cfg: PipelineConfig):
    """Pipeline through the sampling stage; returns the weighted coreset of
    the input curves, the size report, and the sensitivity profile behind
    it."""
    curves = as_curve_set(T)
    if len(curves) < 1:
        raise ValidationError("need at least one curve")
    seed = spawn_seeds(cfg.seed, 1)[0]
    prepared = _prepare(curves, cfg.ell, cfg.p)
    _, profile, report, size, sample_seed = _coreset_stages(curves, prepared, cfg, seed, {})
    return coreset_sample(curves, profile, size, sample_seed), report, profile


def evaluate(T, centers, p=1.0):
    """Total cost and per-center breakdown of assigning T to the centers."""
    center_set = as_curve_set(centers)
    if not len(center_set):
        raise ValidationError("centers must be non-empty")
    assignment, distances = assign_nearest(T, center_set, p)
    per_center = []
    for i, cid in enumerate(center_set.ids):
        mask = assignment == i
        per_center.append(
            {
                "center_index": i,
                "center_id": cid,
                "count": int(mask.sum()),
                "cost": float(distances[mask].sum()),
            }
        )
    return {"cost": float(distances.sum()), "assignment": assignment, "per_center": per_center}
