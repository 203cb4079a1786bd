import numpy as np
import pytest

from dtwmedian.curves import Curve, ResourceGuardError, ValidationError, gen_synthetic
from dtwmedian.closure import (
    build_closure,
    distances_from_set,
    floyd_warshall_reference,
    shortest_path_closure,
)
from dtwmedian.dtw import dtw_brute, dtw_self_matrix, dtw_value
from conftest import curve1d

TOL = 1e-9


def random_set(rng, n, m_hi=5, d=2, scale=3.0):
    return [
        Curve(f"c{i}", rng.normal(0, scale, (int(rng.integers(1, m_hi)), d)))
        for i in range(n)
    ]


def test_single_curve():
    mc = build_closure([curve1d(0, 1)], 1.0)
    assert mc.dist.shape == (1, 1) and mc.dist[0, 0] == 0.0


def test_two_curves_dist_equals_base():
    mc = build_closure([curve1d(0), curve1d(5)], 1.0)
    assert np.array_equal(mc.dist, mc.base)
    assert mc.dist[0, 1] == 5.0


def test_triangle_violation_makes_closure_strictly_smaller():
    # dtw(s,x) + dtw(x,t) = 12 + 2 < 16 = dtw(s,t), verified by the oracle
    s = curve1d(-5, -5, 1, -3, cid="s")
    x = curve1d(-3, 3, cid="x")
    t = curve1d(-2, 4, cid="t")
    assert dtw_brute(s, x, 1.0).value + dtw_brute(x, t, 1.0).value < dtw_brute(
        s, t, 1.0
    ).value - 1.0
    mc = build_closure([s, x, t], 1.0)
    assert mc.dist[0, 2] < mc.base[0, 2] - 1.0
    assert mc.dist[0, 2] == pytest.approx(mc.base[0, 1] + mc.base[1, 2], abs=TOL)


def test_invariants_random(rng):
    for _ in range(15):
        curves = random_set(rng, int(rng.integers(2, 12)))
        m = max(c.complexity for c in curves)
        p = float(rng.choice([1.0, 2.0]))
        mc = build_closure(curves, p)
        n = len(curves)
        assert np.allclose(np.diag(mc.dist), 0.0)
        assert np.array_equal(mc.dist, mc.dist.T)
        assert np.all(mc.dist <= mc.base + TOL)
        # sandwich constants: dtw <= (2m)^(1/p) * closure <= (2m)^(1/p) * dtw
        zeta = (2 * m) ** (1.0 / p)
        assert np.all(mc.base <= zeta * mc.dist + TOL)
        # closure satisfies the triangle inequality
        for i in range(n):
            assert np.all(
                mc.dist <= mc.dist[:, i : i + 1] + mc.dist[i : i + 1, :] + TOL
            )


def test_dijkstra_matches_floyd_warshall(rng):
    for n in (5, 20, 50):
        w = rng.uniform(0.0, 4.0, (n, n))
        w = (w + w.T) / 2
        np.fill_diagonal(w, 0.0)
        assert np.max(np.abs(shortest_path_closure(w) - floyd_warshall_reference(w))) <= TOL


def test_zero_weight_edges_are_kept():
    # duplicate curves give 0-weight edges that must shortcut paths
    a = curve1d(0, cid="a")
    b = curve1d(0, cid="b")  # duplicate of a
    c = curve1d(7, cid="c")
    mc = build_closure([a, b, c], 1.0)
    assert mc.dist[0, 1] == 0.0
    assert mc.dist[0, 2] == pytest.approx(7.0)


def test_distances_from_set_examples(rng):
    curves = random_set(rng, 6)
    mc = build_closure(curves, 1.0)
    # C = everything -> all zeros
    assert np.allclose(distances_from_set(mc.base, range(6)), 0.0)
    # n = 2, C = {i}: the other curve sits at base distance
    two = build_closure(curves[:2], 1.0)
    assert distances_from_set(two.base, [0])[1] == pytest.approx(two.base[0, 1])
    # |C| = 2 cross-check against the column minimum of the full closure
    d = distances_from_set(mc.base, [1, 4])
    assert np.max(np.abs(d - mc.dist[[1, 4]].min(axis=0))) <= TOL


def test_distances_from_set_validation(rng):
    mc = build_closure(random_set(rng, 3), 1.0)
    with pytest.raises(ValidationError):
        distances_from_set(mc.base, [])
    with pytest.raises(ValidationError):
        distances_from_set(mc.base, [5])


def test_subset_monotonicity(rng):
    for _ in range(10):
        curves = random_set(rng, 8)
        sub = sorted(rng.choice(8, size=4, replace=False))
        mc_full = build_closure(curves, 1.0)
        mc_sub = build_closure([curves[i] for i in sub], 1.0)
        restricted = mc_full.dist[np.ix_(sub, sub)]
        # closure-on-X restricted to Y <= closure-on-Y <= base on Y
        assert np.all(restricted <= mc_sub.dist + TOL)
        assert np.all(mc_sub.dist <= mc_full.base[np.ix_(sub, sub)] + TOL)


def test_size_guard():
    curves = [curve1d(i, cid=f"c{i}") for i in range(5)]
    with pytest.raises(ResourceGuardError):
        build_closure(curves, 1.0, size_cap=4)
    with pytest.raises(ValidationError):
        build_closure([], 1.0)


def test_base_matrix_matches_scalar_dtw(rng):
    curves = random_set(rng, 6)
    mc = build_closure(curves, 2.0)
    for i in range(6):
        for j in range(6):
            assert mc.base[i, j] == pytest.approx(
                dtw_value(curves[i], curves[j], 2.0), abs=1e-10
            )
