"""Sensitivity-sampled coresets: per-curve sensitivity upper bounds from a
bicriteria solution, sample sizes from the explicit VC-dimension formulas,
importance sampling with reweighting, and empirical coreset verification.

Sensitivities and weights are computed against exact p-DTW; the quantized
approximate distance is an analysis device and is never evaluated here.

The functions take curve sets (``curves.CurveSet``; a list of curves is
packed once). ``sensitivity_bounds`` reads m from the set's lengths, and a
sample (``coreset_sample``) is a selection of its set's curves, in draw
order, with their weights: ``kl_median`` draws from its simplified inputs
and reads the sample as it is, with no copy of points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curves import ValidationError, WeightedCurveSet, as_curve_set, new_rng
from .bicriteria import BicriteriaSolution
from .dtw import assign_nearest


def bicriteria_alpha_factor(m, ell, p, eps):
    """Approximation factor of the sampled bicriteria route at accuracy eps;
    a valid upper bound to feed the sensitivity formula."""
    return 72.0 * (1.0 + eps) ** 2 * (12.0 + eps) * (16.0 * m * ell**3) ** (1.0 / p)


@dataclass(frozen=True)
class SensitivityProfile:
    """Per-curve sensitivity upper bounds gamma, their dyadic roundings
    lambda, sampling probabilities psi, and the constants of their total
    bound."""

    gamma: np.ndarray
    lam: np.ndarray
    psi: np.ndarray
    alpha: float
    k_hat: int
    m: int
    ell: int
    p: float

    @property
    def Lambda(self):
        return float(self.lam.sum())

    def total_bound(self):
        """Upper bound (m*ell)^(1/p) * (4*k_hat + 10*alpha) on sum(gamma)."""
        return (self.m * self.ell) ** (1.0 / self.p) * (4.0 * self.k_hat + 10.0 * self.alpha)


def sensitivity_bounds(T, sol: BicriteriaSolution, alpha) -> SensitivityProfile:
    """Per-curve sensitivity bounds from a bicriteria solution.

    gamma = (m*ell)^(1/p) * (2*alpha*d_i/total + 4/|cell| + 8*alpha*cell_cost/(total*|cell|))
    with the 0/0 := 0 convention when the total bicriteria cost is zero;
    m is the largest complexity among the curves.
    """
    curves = as_curve_set(T)
    n = len(curves)
    if n < 1:
        raise ValidationError("need at least one curve")
    if sol.assignment.shape[0] != n:
        raise ValidationError("solution assignments do not cover the input")
    if not alpha >= 1.0:
        raise ValidationError("alpha must be >= 1")
    m = int(curves.lengths.max())
    ell, p, k_hat = sol.ell, sol.p, sol.k_hat
    cell_sizes = np.bincount(sol.assignment, minlength=k_hat).astype(np.float64)
    cell_costs = np.bincount(sol.assignment, weights=sol.distances, minlength=k_hat)
    total = float(sol.distances.sum())

    sizes_i = cell_sizes[sol.assignment]
    scale = (m * ell) ** (1.0 / p)
    if total > 0.0:
        gamma = scale * (
            2.0 * alpha * sol.distances / total
            + 4.0 / sizes_i
            + 8.0 * alpha * cell_costs[sol.assignment] / (total * sizes_i)
        )
    else:
        gamma = scale * (4.0 / sizes_i)
    lam = np.exp2(np.ceil(np.log2(gamma)))
    psi = lam / lam.sum()
    return SensitivityProfile(gamma, lam, psi, float(alpha), k_hat, m, ell, p)


@dataclass(frozen=True)
class CoresetSizeReport:
    """Sample-size computation from the explicit VC bounds."""

    d_ball: float
    d_range: float
    Lambda: float
    eta: float
    eps_eff: float
    sample_size: int
    uncapped_size: float

    def to_dict(self):
        return {
            "d_ball": self.d_ball,
            "d_range": self.d_range,
            "lambda_total": self.Lambda,
            "eta": self.eta,
            "eps_eff": self.eps_eff,
            "sample_size": self.sample_size,
            "uncapped_size": self.uncapped_size,
        }


def ball_range_vc_bound(m, ell, d, p, eps):
    """Explicit VC bound for the approximate-ball range space:
    2(d+1) * ell * log2(12*ell*m*floor((m+ell)^(1/p)/eps + 1) + 12m + 12*ell)."""
    inner = math.floor((m + ell) ** (1.0 / p) / eps + 1.0)
    return 2.0 * (d + 1) * ell * math.log2(12.0 * ell * m * inner + 12.0 * m + 12.0 * ell)


def clustering_range_vc_bound(d_ball, k, n, alpha):
    """Range-space bound 2 * D * k * log2(3k) * log2(n*alpha/2 + 2*alpha + 1)."""
    return 2.0 * d_ball * k * math.log2(3.0 * k) * math.log2(n * alpha / 2.0 + 2.0 * alpha + 1.0)


def coreset_size(n, m, ell, d, k, p, eps, delta, alpha, Lambda, constant=0.05):
    """Sample size ceil((c/(eta*eps_eff^2)) * (D_G*ln(1/eta) + ln(1/delta)))
    with eta = 1/Lambda and eps_eff = eps/6, capped at n."""
    if n < 1 or not (0 < eps <= 1) or not (0 < delta < 1):
        raise ValidationError("invalid coreset size arguments")
    if not Lambda > 0 or not constant > 0:
        raise ValidationError("Lambda and constant must be positive")
    d_ball = ball_range_vc_bound(m, ell, d, p, eps)
    d_range = clustering_range_vc_bound(d_ball, k, n, alpha)
    eta = 1.0 / Lambda
    eps_eff = eps / 6.0
    uncapped = (constant / (eta * eps_eff**2)) * (
        d_range * math.log(1.0 / eta) + math.log(1.0 / delta)
    )
    size = max(1, min(n, math.ceil(uncapped)))
    return CoresetSizeReport(d_ball, d_range, float(Lambda), eta, eps_eff, size, uncapped)


def coreset_sample(T, profile: SensitivityProfile, size, seed) -> WeightedCurveSet:
    """``size`` i.i.d. draws from psi (inverse-transform over the cumulative
    distribution), each carrying weight Lambda/(size*lambda_i), in draw
    order: a selection of T's curves, duplicates kept as separate entries."""
    if size < 1:
        raise ValidationError("size must be >= 1")
    curves = as_curve_set(T)
    if len(curves) != profile.psi.shape[0]:
        raise ValidationError("profile does not match the curve set")
    rng = new_rng(seed)
    cum = np.cumsum(profile.psi)
    cum[-1] = 1.0
    draws = np.searchsorted(cum, rng.random(size), side="right")
    draws = np.minimum(draws, cum.size - 1)
    weights = profile.Lambda / (size * profile.lam[draws])
    return WeightedCurveSet(curves.take(draws), weights)


def cost(T, C, p=1.0):
    """Clustering cost: sum over inputs of (weight times) the nearest p-DTW
    distance to a center of C."""
    if isinstance(T, WeightedCurveSet):
        curves, weights = T.curves, T.weights
    else:
        curves = as_curve_set(T)
        weights = np.ones(len(curves))
    centers = as_curve_set(C)
    if not len(centers):
        raise ValidationError("C must be non-empty")
    if not len(curves):
        return 0.0
    _, distances = assign_nearest(curves, centers, p)
    return float(np.sum(weights * distances))


@dataclass(frozen=True)
class CoresetVerification:
    max_error: float
    errors: np.ndarray
    failing: tuple[int, ...]
    undefined: tuple[int, ...]

    @property
    def ok(self):
        return len(self.failing) == 0 and len(self.undefined) == 0


def verify_coreset(T, S: WeightedCurveSet, candidates, eps, p=1.0) -> CoresetVerification:
    """Relative cost error of the weighted set S against T for each candidate
    center set; 0/0 counts as 0, a zero denominator alone is flagged."""
    candidates = list(candidates)
    if not candidates:
        raise ValidationError("need at least one candidate center set")
    errors = np.zeros(len(candidates))
    failing = []
    undefined = []
    for i, C in enumerate(candidates):
        full = cost(T, C, p)
        approx = cost(S, C, p)
        if full == 0.0:
            if approx == 0.0:
                errors[i] = 0.0
            else:
                errors[i] = math.inf
                undefined.append(i)
                continue
        else:
            errors[i] = abs(approx - full) / full
        if errors[i] > eps:
            failing.append(i)
    return CoresetVerification(float(errors.max()), errors, tuple(failing), tuple(undefined))
