import numpy as np
import pytest

from dtwmedian import bicriteria
from dtwmedian.curves import Curve, CurveSet, ValidationError, gen_synthetic
from dtwmedian.bicriteria import (
    BicriteriaSolution,
    SamplingParams,
    _prepare,
    bicriteria_klmedian,
    k_median_sampled,
    k_routine,
)
from dtwmedian.closure import build_closure
from dtwmedian.coreset import bicriteria_alpha_factor
from dtwmedian.dtw import dtw_matrix, dtw_value
from dtwmedian.kmedian import FiniteMetricInstance, kmedian_brute
from dtwmedian.simplify import simplify_2approx
from conftest import curve1d, restricted_opt

TOL = 1e-9


def planted_points_1d(rng, n):
    """n one-point 1-D curves in two planted groups around 0 and 100."""
    vals = np.concatenate(
        [rng.normal(0.0, 1.0, n // 2), rng.normal(100.0, 1.0, n - n // 2)]
    )
    return [curve1d(v, cid=f"c{i}") for i, v in enumerate(vals)]


def test_sampling_params_formulas():
    sp = SamplingParams.for_instance(100, 2, 0.5)
    assert sp.a == 2 and sp.b == 4
    assert sp.s == min(100, int(np.ceil(2 * np.sqrt(2 * 100 * np.log(3)))))
    assert sp.m_size == min(100, int(np.ceil(4 * 2 * 100 * np.log(3) / sp.s)))
    tiny = SamplingParams.for_instance(5, 3, 0.9)
    assert tiny.s <= 5 and tiny.m_size <= 5


def test_k_routine_degenerate_branch(rng):
    curves = planted_points_1d(rng, 8)
    # n <= s short-circuits to the local search on the whole closure
    out = k_routine(CurveSet(curves), 1.0, np.arange(8), 2, 0.5, 0)
    assert out.size <= 2


def test_k_routine_cardinality_and_cost(rng):
    curves = planted_points_1d(rng, 30)
    out = k_routine(CurveSet(curves), 1.0, np.arange(30), 2, 0.5, 5)
    assert out.size <= 4  # 2k
    mc = build_closure(curves, 1.0)
    inst = FiniteMetricInstance(mc.dist, np.ones(30), 2)
    opt = kmedian_brute(inst).cost
    got = float(mc.dist[out].min(axis=0).sum())
    factor = 3 * (1 + 0.5) * (2 + 5 + 0.5)
    assert got <= factor * opt + TOL


def test_k_median_sampled_cardinality_and_cost(rng):
    curves = planted_points_1d(rng, 40)
    m = max(c.complexity for c in curves)
    out = k_median_sampled(CurveSet(curves), 1.0, np.arange(40), 2, 0.5, 9)
    assert out.size <= 8  # 4k
    mc = build_closure(curves, 1.0)
    opt = kmedian_brute(FiniteMetricInstance(mc.dist, np.ones(40), 2)).cost
    got = float(mc.dist[out].min(axis=0).sum())
    zeta = (2 * m) ** 1.0
    factor = 11 * zeta**2 * (1 + 0.5) ** 2 * (12 + 0.5)
    assert got <= factor * opt + TOL


def test_identical_curves_zero_cost():
    curves = [curve1d(1, 2, cid=f"c{i}") for i in range(10)]
    sol = bicriteria_klmedian(curves, 2, 2, 1.0, 0.5, 0, repetitions=1)
    assert sol.cost == 0.0
    assert sol.k_hat <= 8


def test_a_sequence_under_several_ids_is_one_center(rng):
    # 3 sequences, each under 4 ids, interleaved
    seqs = [rng.normal(0, 3, (6, 2)) for _ in range(3)]
    curves = [Curve(f"c{j}_{r}", seqs[j]) for r in range(4) for j in range(3)]
    # inputs with equal points share one simplification, with the first id
    prepared = _prepare(curves, 2, 1.0)
    simplified = list(prepared.simplified)
    assert len(simplified) == 3
    for i, c in enumerate(curves):
        assert prepared.inverse[i] == prepared.inverse[i % 3]
        assert simplified[prepared.inverse[i]].id == f"c{i % 3}_0"
    for seed in range(6):
        sol = bicriteria_klmedian(curves, 4, 2, 1.0, 0.5, seed, repetitions=2)
        assert sol.k_hat <= 3
        keys = {c.points.tobytes() for c in sol.centers}
        assert len(keys) == sol.k_hat
        assert all(c in simplified for c in sol.centers)
        assert sol.cost == float(sol.distances.sum())


def test_n_equals_k_bounded_by_simplification_error(rng):
    curves = [
        Curve(f"c{i}", rng.normal(0, 3, (6, 2))) for i in range(3)
    ]
    sol = bicriteria_klmedian(curves, 3, 2, 1.0, 0.5, 1, repetitions=1)
    bound = sum(
        dtw_value(c, simplify_2approx(c, 2, 1.0), 1.0) for c in curves
    )
    assert sol.cost <= bound + TOL


def test_planted_clusters_factor_vs_restricted_opt(rng):
    curves = list(gen_synthetic(3, 20, 8, 1, 0.5, 77))
    sol = bicriteria_klmedian(curves, 3, 2, 1.0, 0.5, 4, repetitions=2)
    assert sol.k_hat <= 12
    simplified = [simplify_2approx(c, 2, 1.0) for c in curves]
    ropt = restricted_opt(curves, simplified, 3, 1.0)
    factor = bicriteria_alpha_factor(8, 2, 1.0, 0.5)
    assert sol.cost <= factor * ropt + TOL


def test_cost_consistency_and_cardinality(rng):
    curves = list(gen_synthetic(2, 10, 5, 2, 0.4, 3))
    sol = bicriteria_klmedian(curves, 2, 2, 1.0, 0.5, 8, repetitions=1)
    cross = dtw_matrix(curves, list(sol.centers), 1.0)
    assert sol.cost == pytest.approx(float(cross.min(axis=1).sum()), abs=TOL)
    assert np.array_equal(sol.assignment, np.argmin(cross, axis=1))
    assert sol.k_hat <= 8
    for c in sol.centers:
        assert c.complexity <= 2


def test_monotone_adding_centers_never_increases_cost(rng):
    curves = list(gen_synthetic(2, 8, 5, 1, 0.6, 13))
    sol = bicriteria_klmedian(curves, 2, 2, 1.0, 0.5, 2, repetitions=1)
    if sol.k_hat > 1:
        cross = dtw_matrix(curves, list(sol.centers), 1.0)
        for drop in range(sol.k_hat):
            keep = [i for i in range(sol.k_hat) if i != drop]
            assert float(cross[:, keep].min(axis=1).sum()) >= sol.cost - TOL


def test_repetitions_below_one_raise():
    curves = list(gen_synthetic(2, 4, 5, 1, 0.4, 3))
    for repetitions in (0, -1):
        with pytest.raises(ValidationError):
            bicriteria_klmedian(curves, 2, 2, repetitions=repetitions)


def test_eps_outside_the_open_unit_interval_raises_before_any_work(monkeypatch):
    curves = list(gen_synthetic(2, 4, 5, 1, 0.4, 3))
    monkeypatch.setattr(bicriteria, "_prepare", None)
    for eps in (0.0, -0.5, 1.0, float("nan")):
        with pytest.raises(ValidationError, match="eps"):
            bicriteria_klmedian(curves, 2, 2, eps=eps)


def test_determinism(rng):
    curves = list(gen_synthetic(2, 12, 6, 2, 0.5, 5))
    a = bicriteria_klmedian(curves, 2, 2, 1.0, 0.5, 42, repetitions=2)
    b = bicriteria_klmedian(curves, 2, 2, 1.0, 0.5, 42, repetitions=2)
    assert a.cost == b.cost
    assert np.array_equal(a.assignment, b.assignment)
    for ca, cb in zip(a.centers, b.centers):
        assert np.array_equal(ca.points, cb.points)

