"""End-to-end (k,l)-median: bicriteria seeding, which ell-simplifies every
input once, sensitivity sampling of those simplified curves, metric closure
and weighted k-median, plus the small-n route that clusters the closure of
the whole simplified set directly. Both routes share one back half: closure,
k-median and the nearest-center assignment of the inputs.

The accuracy knob follows the source construction: the caller's eps is split
as eps' = eps/46 and every stage runs at eps'. The pipeline repeats
end-to-end ``repetitions`` times with derived seeds and keeps the cheapest
clustering.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import numpy as np

from .bicriteria import bicriteria_klmedian
from .closure import CLOSURE_SIZE_CAP, build_closure
from .coreset import (
    bicriteria_alpha_factor,
    coreset_sample,
    coreset_size,
    sensitivity_bounds,
)
from .curves import Curve, PipelineConfig, ValidationError, spawn_seeds
# dtw_matrix stays bound here: the benchmark's tracer test reads pipeline.dtw_matrix
from .dtw import assign_nearest, dtw_matrix  # noqa: F401
from .kmedian import FiniteMetricInstance, kmedian_local_search
from .simplify import simplify_set


@dataclass(frozen=True)
class ClusteringResult:
    """Exactly k centers of complexity <= ell with a full-input assignment.

    Each center is the ell-simplification of an input curve and carries its
    id; ``timings`` holds the per-stage wall times of the run (the
    repetition) that produced it.
    """

    centers: tuple[Curve, ...]
    assignment: np.ndarray
    distances: np.ndarray
    cost: float
    timings: dict
    config: PipelineConfig
    bicriteria_cost: float | None = None

    def to_dict(self):
        return {
            "config": asdict(self.config),
            "timings": dict(self.timings),
            "centers": [
                {"id": c.id, "points": c.points.tolist()} for c in self.centers
            ],
            "assignment": self.assignment.tolist(),
            "cost": self.cost,
            "bicriteria_cost": self.bicriteria_cost,
        }


@contextmanager
def _stage(timings, name):
    start = time.perf_counter()
    yield
    timings[name] = timings.get(name, 0.0) + (time.perf_counter() - start)


def _pad_centers(center_ids, instance_dist, weights, k):
    """Ensure k center slots: greedily add the unused instance point with the
    largest cost decrease, duplicating the first center once none remain."""
    centers = list(center_ids)
    n = instance_dist.shape[0]
    while len(centers) < k:
        unused = [i for i in range(n) if i not in centers]
        if not unused:
            centers.append(centers[0])
            continue
        current = instance_dist[centers].min(axis=0)
        best, best_cost = unused[0], None
        for cand in unused:
            c = float(np.sum(weights * np.minimum(current, instance_dist[cand])))
            if best_cost is None or c < best_cost:
                best, best_cost = cand, c
        centers.append(best)
    return centers


def _cluster_simplified(
    curves, simplified, weights, k, p, eps, seed, timings, size_cap=CLOSURE_SIZE_CAP
):
    """The back half of both routes: weighted k-median on the closure of the
    simplified curves, padded to k centers, then the nearest-center
    assignment of the inputs; returns (centers, assignment, distances)."""
    with _stage(timings, "closure"):
        closure = build_closure(simplified, p, size_cap=size_cap)
    with _stage(timings, "kmedian"):
        inst = FiniteMetricInstance(closure.dist, weights, min(k, len(simplified)))
        sol = kmedian_local_search(inst, eps=eps, seed=seed)
        slots = _pad_centers(sol.centers, closure.dist, weights, k)
        centers = tuple(simplified[i] for i in slots)
    with _stage(timings, "assignment"):
        assignment, distances = assign_nearest(curves, centers, p)
    return centers, assignment, distances


def _coreset_stages(curves, cfg, seed, timings):
    """Bicriteria and sensitivities (the shared front of the pipeline);
    returns (bicriteria, profile, size report, sample size, sampling seed)."""
    n = len(curves)
    m = max(c.complexity for c in curves)
    d = curves[0].dimension
    eps_prime = cfg.eps / 46.0
    seeds = spawn_seeds(seed, 2)
    with _stage(timings, "bicriteria"):
        bicrit = bicriteria_klmedian(
            curves, cfg.k, cfg.ell, cfg.p, eps_prime, seeds[0], repetitions=1
        )
    alpha = cfg.alpha_override or bicriteria_alpha_factor(m, cfg.ell, cfg.p, eps_prime)
    with _stage(timings, "sensitivity"):
        profile = sensitivity_bounds(curves, bicrit, alpha, ell=cfg.ell)
    report = coreset_size(
        n,
        m,
        cfg.ell,
        d,
        cfg.k,
        cfg.p,
        eps_prime,
        cfg.delta,
        alpha,
        bicrit.k_hat,
        profile.Lambda,
        cfg.sample_constant,
    )
    size = cfg.size_override or report.sample_size
    return bicrit, profile, report, size, seeds[1]


def kl_median(T, cfg: PipelineConfig) -> ClusteringResult:
    """Full pipeline: coreset stages, a sensitivity sample of the bicriteria
    stage's simplified curves, metric closure, weighted k-median at
    eps' = eps/46, exactly k final centers."""
    curves = list(T)
    n = len(curves)
    if n < cfg.k:
        raise ValidationError(f"need at least k={cfg.k} curves, got {n}")
    best = None
    for rep_seed in spawn_seeds(cfg.seed, cfg.repetitions):
        timings: dict = {}
        seeds = spawn_seeds(rep_seed, 2)
        bicrit, profile, _, size, sample_seed = _coreset_stages(curves, cfg, seeds[0], timings)
        with _stage(timings, "sampling"):
            coreset = coreset_sample(bicrit.simplified, profile, size, sample_seed)
            # repeated draws of one curve become one weighted point, in
            # first-draw order with weights summed in draw order
            merged: dict[Curve, float] = {}
            for c, w in coreset:
                merged[c] = merged.get(c, 0.0) + w
        centers, assignment, distances = _cluster_simplified(
            curves,
            list(merged),
            np.array(list(merged.values())),
            cfg.k,
            cfg.p,
            cfg.eps / 46.0,
            seeds[1],
            timings,
        )
        total = float(distances.sum())
        if best is None or total < best.cost:
            best = ClusteringResult(
                centers, assignment, distances, total, timings, cfg, bicriteria_cost=bicrit.cost
            )
    return best


def cluster_via_closure(
    T, k, ell, p=1.0, eps=0.5, method="two-approx", seed=0, size_cap=CLOSURE_SIZE_CAP
) -> ClusteringResult:
    """Small-n route: simplify everything, build the full closure, run the
    metric k-median on it, and map centers back to the input."""
    curves = list(T)
    n = len(curves)
    if n < k:
        raise ValidationError(f"need at least k={k} curves, got {n}")
    cfg = PipelineConfig(k=k, ell=ell, p=p, eps=eps, seed=seed)
    timings: dict = {}
    with _stage(timings, "simplify"):
        simplified = simplify_set(curves, ell, p, method, eps)
    centers, assignment, distances = _cluster_simplified(
        curves, simplified, np.ones(n), k, p, min(eps, 0.999), seed, timings, size_cap
    )
    return ClusteringResult(
        centers, assignment, distances, float(distances.sum()), timings, cfg
    )


def emit_coreset_only(T, cfg: PipelineConfig):
    """Pipeline through the sampling stage; returns the weighted coreset of
    the input curves, the size report, and the sensitivity profile behind
    it."""
    curves = list(T)
    if len(curves) < 1:
        raise ValidationError("need at least one curve")
    seed = spawn_seeds(cfg.seed, 1)[0]
    _, profile, report, size, sample_seed = _coreset_stages(curves, cfg, seed, {})
    return coreset_sample(curves, profile, size, sample_seed), report, profile


def evaluate(T, centers, p=1.0):
    """Total cost and per-center breakdown of assigning T to the centers."""
    curves = list(T)
    center_list = list(centers)
    if not center_list:
        raise ValidationError("centers must be non-empty")
    assignment, distances = assign_nearest(curves, center_list, p)
    per_center = []
    for i in range(len(center_list)):
        mask = assignment == i
        per_center.append(
            {
                "center_index": i,
                "center_id": center_list[i].id,
                "count": int(mask.sum()),
                "cost": float(distances[mask].sum()),
            }
        )
    return {"cost": float(distances.sum()), "assignment": assignment, "per_center": per_center}
