import numpy as np
import pytest

from dtwmedian.curves import Curve, ValidationError, WeightedCurveSet, gen_synthetic
from dtwmedian.bicriteria import BicriteriaSolution, bicriteria_klmedian
from dtwmedian.coreset import (
    ball_range_vc_bound,
    bicriteria_alpha_factor,
    coreset_sample,
    coreset_size,
    cost,
    sensitivity_bounds,
    verify_coreset,
)
from dtwmedian.dtw import dtw_matrix, dtw_value
from conftest import curve1d

TOL = 1e-9


def solved_instance(rng, clusters=2, per=10, m=6, d=1, noise=0.5, seed=3, k=2, ell=2):
    curves = list(gen_synthetic(clusters, per, m, d, noise, seed))
    sol = bicriteria_klmedian(curves, k, ell, 1.0, 0.5, seed, repetitions=1)
    return curves, sol


def test_identical_curves_uniform_profile():
    curves = [curve1d(0, 1, cid=f"c{i}") for i in range(8)]
    sol = bicriteria_klmedian(curves, 1, 2, 1.0, 0.5, 0, repetitions=1)
    prof = sensitivity_bounds(curves, sol, alpha=5.0)
    m_ell = (2 * 2) ** 1.0
    assert np.allclose(prof.gamma, m_ell * 4.0 / 8.0)  # zero-cost convention
    assert np.allclose(prof.psi, 1.0 / 8.0)
    assert prof.psi.sum() == pytest.approx(1.0, abs=1e-12)


def test_single_curve_formula():
    curve = curve1d(0, 0, cid="q")
    center = curve1d(3, cid="c")
    sol = BicriteriaSolution(
        (center,), np.array([0]), np.array([6.0]), 6.0, 1, 1.0
    )
    prof = sensitivity_bounds([curve], sol, alpha=2.0)
    assert prof.gamma[0] == pytest.approx((2 * 1) ** 1.0 * (2 * 2 + 4 + 8 * 2))


def test_total_sensitivity_bound(rng):
    for seed in range(6):
        curves, sol = solved_instance(rng, seed=seed)
        m = max(c.complexity for c in curves)
        alpha = bicriteria_alpha_factor(m, 2, 1.0, 0.5)
        prof = sensitivity_bounds(curves, sol, alpha)
        # the bound is an exact-real identity when every cell is non-empty,
        # so allow float-rounding slack relative to its magnitude
        bound = prof.total_bound()
        assert prof.gamma.sum() <= bound * (1 + 1e-12) + TOL


def test_lambda_dyadic_and_psi(rng):
    curves, sol = solved_instance(rng, seed=9)
    prof = sensitivity_bounds(curves, sol, alpha=1e4)
    ratio = prof.lam / prof.gamma
    assert np.all(ratio >= 1.0 - 1e-12)
    assert np.all(ratio <= 2.0 + 1e-12)
    assert prof.psi.sum() == pytest.approx(1.0, abs=1e-12)


def test_sensitivity_validation(rng):
    curves, sol = solved_instance(rng, seed=1)
    with pytest.raises(ValidationError):
        sensitivity_bounds(curves, sol, alpha=0.5)  # alpha < 1
    with pytest.raises(ValidationError):
        sensitivity_bounds(curves[:3], sol, alpha=2.0)  # assignment mismatch
    with pytest.raises(ValidationError):
        sensitivity_bounds([], sol, alpha=2.0)


def test_vc_formula_value():
    assert ball_range_vc_bound(8, 2, 1, 1.0, 0.5) == pytest.approx(
        8 * np.log2(4152), abs=1e-9
    )


def test_coreset_size_cap_linearity_monotonicity():
    kwargs = dict(n=100, m=8, ell=2, d=1, k=3, p=1.0, delta=0.1, alpha=50.0, Lambda=500.0)
    r1 = coreset_size(eps=0.5, constant=0.05, **kwargs)
    r2 = coreset_size(eps=0.5, constant=0.10, **kwargs)
    assert r1.sample_size <= 100
    assert r2.uncapped_size == pytest.approx(2 * r1.uncapped_size, rel=1e-12)
    # shrinking eps never decreases the (uncapped) size
    r3 = coreset_size(eps=0.25, constant=0.05, **kwargs)
    assert r3.uncapped_size >= r1.uncapped_size
    assert r1.sample_size >= 1


def test_coreset_sample_weights_and_multiset(rng):
    curves, sol = solved_instance(rng, seed=4)
    prof = sensitivity_bounds(curves, sol, alpha=100.0)
    ws = coreset_sample(curves, prof, 50, 11)
    assert len(ws) == 50
    id2idx = {c.id: i for i, c in enumerate(curves)}
    Lambda = prof.Lambda
    for c, w in ws:
        assert w == pytest.approx(Lambda / (50 * prof.lam[id2idx[c.id]]))
    # determinism
    ws2 = coreset_sample(curves, prof, 50, 11)
    assert [c.id for c, _ in ws] == [c.id for c, _ in ws2]


def test_coreset_sample_frequencies_three_sigma(rng):
    curves = [curve1d(i, cid=f"c{i}") for i in range(5)]
    sol = bicriteria_klmedian(curves, 2, 1, 1.0, 0.5, 0, repetitions=1)
    prof = sensitivity_bounds(curves, sol, alpha=10.0)
    id2idx = {c.id: i for i, c in enumerate(curves)}
    draws = 20000
    counts = np.zeros(5)
    ws = coreset_sample(curves, prof, draws, 123)
    for c, _ in ws:
        counts[id2idx[c.id]] += 1
    freq = counts / draws
    sigma = np.sqrt(prof.psi * (1 - prof.psi) / draws)
    assert np.all(np.abs(freq - prof.psi) <= 3.5 * sigma + 1e-12)


def test_cost_examples(rng):
    curves = [curve1d(0, 1, cid="a"), curve1d(5, cid="b"), curve1d(9, 9, cid="c")]
    assert cost(curves, curves, 1.0) == 0.0
    assert cost([curves[0]], [curves[1]], 1.0) == pytest.approx(
        dtw_value(curves[0], curves[1], 1.0)
    )
    centers = [curve1d(0, cid="x"), curve1d(8, cid="y")]
    expected = sum(
        min(dtw_value(c, x, 1.0) for x in centers) for c in curves
    )
    assert cost(curves, centers, 1.0) == pytest.approx(expected, abs=TOL)
    with pytest.raises(ValidationError):
        cost(curves, [], 1.0)


def test_cost_weighted():
    ws = WeightedCurveSet([curve1d(0, cid="a"), curve1d(4, cid="b")], [2.0, 3.0])
    center = [curve1d(1, cid="c")]
    assert cost(ws, center, 1.0) == pytest.approx(2 * 1 + 3 * 3)


def test_verify_coreset_identity_and_duplicates(rng):
    curves = list(gen_synthetic(2, 5, 4, 1, 0.5, 8))
    unit = WeightedCurveSet(curves, np.ones(len(curves)))
    cands = [[simplify] for simplify in curves[:3]]
    rep = verify_coreset(curves, unit, cands, eps=0.0, p=1.0)
    assert rep.max_error == 0.0 and rep.ok

    # duplicated dataset: half the curves at weight 2 is exact
    doubled = curves + [Curve(c.id + "_dup", c.points) for c in curves]
    half = WeightedCurveSet(curves, np.full(len(curves), 2.0))
    rep = verify_coreset(doubled, half, cands, eps=1e-12, p=1.0)
    assert rep.max_error <= 1e-12


def test_verify_coreset_flags_failures():
    base = [curve1d(0, cid="a"), curve1d(10, cid="b")]
    bad = WeightedCurveSet(base[:1], [5.0])  # ignores the far curve
    rep = verify_coreset(base, bad, [[curve1d(0, cid="x")]], eps=0.1, p=1.0)
    assert rep.failing and not rep.ok


def test_estimator_unbiased_small(rng):
    curves = list(gen_synthetic(2, 15, 6, 1, 0.6, 21))
    sol = bicriteria_klmedian(curves, 2, 2, 1.0, 0.5, 2, repetitions=1)
    prof = sensitivity_bounds(curves, sol, bicriteria_alpha_factor(6, 2, 1.0, 0.5))
    C = [simplifyd for simplifyd in list(sol.centers)[:2]]
    mind = dtw_matrix(curves, C, 1.0).min(axis=1)
    full = float(mind.sum())
    id2idx = {c.id: i for i, c in enumerate(curves)}
    est = []
    for s in range(800):
        ws = coreset_sample(curves, prof, 40, 5000 + s)
        est.append(sum(w * mind[id2idx[c.id]] for c, w in ws))
    assert abs(np.mean(est) - full) / full <= 0.02
