import itertools

import numpy as np
import pytest

from dtwmedian.curves import Curve, ValidationError
from dtwmedian.dtw import dtw_value
from dtwmedian.simplify import (
    geometric_median,
    median_cost,
    simplify_2approx,
    simplify_2approx_detailed,
    simplify_eps_p1,
    simplify_eps_p1_detailed,
    simplify_exact_p2,
    simplify_exact_p2_detailed,
    simplify_vertex_restricted,
    simplify_vertex_restricted_detailed,
)
from conftest import curve1d

TOL = 1e-9


# ---------------------------------------------------------------------------
# brute-force oracles
# ---------------------------------------------------------------------------

def contiguous_partitions(m, max_parts):
    for nparts in range(1, min(max_parts, m) + 1):
        for splits in itertools.combinations(range(1, m), nparts - 1):
            bounds = [0, *splits, m]
            yield [(bounds[i], bounds[i + 1] - 1) for i in range(nparts)]


def brute_medoid_partition_cost(points, ell, p):
    best = np.inf
    for parts in contiguous_partitions(len(points), ell):
        total = 0.0
        for a, b in parts:
            seg = points[a : b + 1]
            total += min(
                float(np.sum(np.linalg.norm(seg - points[i], axis=1) ** p))
                for i in range(a, b + 1)
            )
        best = min(best, total ** (1.0 / p))
    return best


def brute_centroid_partition_cost(points, ell):
    best = np.inf
    for parts in contiguous_partitions(len(points), ell):
        total = 0.0
        for a, b in parts:
            seg = points[a : b + 1]
            total += float(np.sum((seg - seg.mean(axis=0)) ** 2))
        best = min(best, total**0.5)
    return best


def grid_median_cost(points, lo, hi, steps):
    grids = [np.linspace(lo[j], hi[j], steps) for j in range(points.shape[1])]
    best = np.inf
    for center in itertools.product(*grids):
        best = min(best, median_cost(points, np.array(center)))
    return best


def brute_grid_partition_cost(points, ell, steps=41):
    lo, hi = points.min(axis=0), points.max(axis=0)
    best = np.inf
    for parts in contiguous_partitions(len(points), ell):
        total = sum(
            grid_median_cost(points[a : b + 1], lo, hi, steps) for a, b in parts
        )
        best = min(best, total)
    return best


# ---------------------------------------------------------------------------
# examples
# ---------------------------------------------------------------------------

def test_2approx_examples():
    s = simplify_2approx_detailed(curve1d(0, 0, 0, 10), 2, 1.0)
    assert np.allclose(s.curve.points.ravel(), [0, 10])
    assert s.grouping_cost == 0.0

    c = curve1d(0, 1)
    assert simplify_2approx(c, 3, 1.0) is c  # m <= ell short-circuit

    s = simplify_2approx_detailed(curve1d(0, 1, 5), 2, 1.0)
    assert np.allclose(s.curve.points.ravel(), [0, 5])  # medoid tie -> lower index
    assert s.parts == ((0, 1), (2, 2))
    assert s.grouping_cost == pytest.approx(1.0)


def test_eps1_examples():
    same = Curve("s", [[2.0, 2.0]] * 4)
    s = simplify_eps_p1_detailed(same, 2, 0.1)
    assert s.grouping_cost == 0.0
    assert np.allclose(s.curve.points, 2.0)

    s = simplify_eps_p1_detailed(curve1d(0, 2), 1, 0.1)
    assert np.allclose(s.curve.points.ravel(), [1.0])  # coordinate-wise median
    assert s.grouping_cost == pytest.approx(2.0)

    tri = Curve("t", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    s = simplify_eps_p1_detailed(tri, 1, 0.01)
    brute = grid_median_cost(tri.points, np.array([0.0, 0.0]), np.array([1.0, 1.0]), 201)
    assert s.grouping_cost <= 1.01 * brute + 1e-6


def test_vertex_restricted_examples():
    c = curve1d(0, 1, 5)
    assert simplify_vertex_restricted(c, 3, 1.0) is c
    s = simplify_vertex_restricted_detailed(c, 2, 1.0)
    assert s.grouping_cost == pytest.approx(1.0)
    s = simplify_vertex_restricted_detailed(curve1d(0, 0, 7), 1, 1.0)
    assert np.allclose(s.curve.points.ravel(), [0.0])
    assert s.grouping_cost == pytest.approx(7.0)


def test_exact_p2_examples():
    s = simplify_exact_p2_detailed(curve1d(0, 2), 1)
    assert np.allclose(s.curve.points.ravel(), [1.0])
    assert s.grouping_cost == pytest.approx(np.sqrt(2.0))
    s = simplify_exact_p2_detailed(curve1d(0, 0, 8, 8), 2)
    assert np.allclose(s.curve.points.ravel(), [0.0, 8.0])
    assert s.grouping_cost == 0.0


def test_validation_errors():
    c = curve1d(0, 1, 2)
    with pytest.raises(ValidationError):
        simplify_2approx(c, 0, 1.0)
    with pytest.raises(ValidationError):
        simplify_vertex_restricted(c, 4, 1.0)
    with pytest.raises(ValidationError):
        simplify_eps_p1(c, 1, 0.0)
    with pytest.raises(ValidationError):
        simplify_exact_p2(c, 0)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

def test_output_complexity_and_dimension(rng):
    for _ in range(40):
        m = int(rng.integers(1, 12))
        d = int(rng.integers(1, 4))
        ell = int(rng.integers(1, 6))
        c = Curve("x", rng.normal(0, 3, (m, d)))
        for out in (
            simplify_2approx(c, ell, 2.0),
            simplify_eps_p1(c, ell, 0.25),
            simplify_exact_p2(c, ell),
        ):
            assert out.complexity <= ell
            assert out.dimension == d
        out = simplify_vertex_restricted(c, min(ell, m), 1.0)
        assert out.complexity <= min(ell, m)
        assert out.dimension == d


def test_2approx_grouping_cost_matches_exhaustive(rng):
    for _ in range(60):
        m = int(rng.integers(2, 11))
        d = int(rng.integers(1, 3))
        ell = int(rng.integers(1, m))
        p = float(rng.choice([1.0, 2.0]))
        c = Curve("x", rng.normal(0, 3, (m, d)))
        s = simplify_2approx_detailed(c, ell, p)
        assert s.grouping_cost == pytest.approx(
            brute_medoid_partition_cost(c.points, ell, p), abs=TOL
        )


def test_exact_p2_matches_exhaustive(rng):
    for _ in range(40):
        m = int(rng.integers(2, 9))
        ell = int(rng.integers(1, m))
        c = Curve("x", rng.normal(0, 3, (m, 2)))
        s = simplify_exact_p2_detailed(c, ell)
        assert s.grouping_cost == pytest.approx(
            brute_centroid_partition_cost(c.points, ell), abs=TOL
        )


def test_two_approximation_bound_vs_exact_p2(rng):
    for _ in range(60):
        m = int(rng.integers(2, 21))
        ell = int(rng.integers(1, min(m, 6)))
        c = Curve("x", rng.normal(0, 3, (m, int(rng.integers(1, 3)))))
        approx = dtw_value(simplify_2approx(c, ell, 2.0), c, 2.0)
        exact = dtw_value(simplify_exact_p2(c, ell), c, 2.0)
        assert approx <= 2.0 * exact + TOL


def test_eps1_bound_vs_grid_brute(rng):
    eps = 0.1
    for _ in range(8):
        m = int(rng.integers(2, 7))
        ell = int(rng.integers(1, min(m, 3)))
        c = Curve("x", rng.normal(0, 2, (m, 2)))
        out = simplify_eps_p1_detailed(c, ell, eps)
        brute = brute_grid_partition_cost(c.points, ell, steps=41)
        assert out.grouping_cost <= (1 + eps) * brute + 1e-6


def test_vertex_restricted_matches_tuple_enumeration(rng):
    # oracle: every length-<=ell tuple of vertices of the curve
    for _ in range(25):
        m = int(rng.integers(2, 6))
        ell = int(rng.integers(1, m))
        c = Curve("x", rng.normal(0, 3, (m, int(rng.integers(1, 3)))))
        s = simplify_vertex_restricted_detailed(c, ell, 1.0)
        best = np.inf
        for length in range(1, ell + 1):
            for tup in itertools.product(range(m), repeat=length):
                cand = Curve("v", c.points[list(tup)])
                best = min(best, dtw_value(cand, c, 1.0))
        assert s.grouping_cost == pytest.approx(best, abs=TOL)
        assert dtw_value(s.curve, c, 1.0) == pytest.approx(best, abs=TOL)


def test_lopsided_equality_where_theorem(rng):
    # centroid, global-vertex and geometric-median cells lower-bound any
    # single-center assignment, so dtw realizes the grouping cost exactly
    for _ in range(50):
        m = int(rng.integers(2, 9))
        ell = int(rng.integers(1, m))
        c = Curve("x", rng.normal(0, 3, (m, int(rng.integers(1, 3)))))
        s = simplify_exact_p2_detailed(c, ell)
        assert dtw_value(s.curve, c, 2.0) == pytest.approx(s.grouping_cost, abs=TOL)
        s = simplify_vertex_restricted_detailed(c, ell, 1.0)
        assert dtw_value(s.curve, c, 1.0) == pytest.approx(s.grouping_cost, abs=TOL)
        s = simplify_eps_p1_detailed(c, ell, 0.25)
        assert dtw_value(s.curve, c, 1.0) == pytest.approx(s.grouping_cost, abs=1e-7)


def test_lopsided_equality_medoid_p1_and_upper_bound_p2(rng):
    # equality holds empirically for the medoid cells at p=1; at p=2 only
    # realizability (<=) is guaranteed: a traversal may reuse another
    # group's medoid and beat the partition cost
    for _ in range(80):
        m = int(rng.integers(2, 9))
        ell = int(rng.integers(1, m))
        c = Curve("x", rng.normal(0, 3, (m, int(rng.integers(1, 3)))))
        s1 = simplify_2approx_detailed(c, ell, 1.0)
        assert dtw_value(s1.curve, c, 1.0) == pytest.approx(s1.grouping_cost, abs=TOL)
        s2 = simplify_2approx_detailed(c, ell, 2.0)
        assert dtw_value(s2.curve, c, 2.0) <= s2.grouping_cost + TOL


def test_medoid_p2_equality_counterexample():
    # the concrete instance where dtw beats the optimal medoid partition
    c = curve1d(-2.37002189, 4.89156569, -4.81831707, 1.153453, -2.62271813)
    s = simplify_2approx_detailed(c, 2, 2.0)
    assert s.grouping_cost == pytest.approx(
        brute_medoid_partition_cost(c.points, 2, 2.0), abs=TOL
    )
    assert dtw_value(s.curve, c, 2.0) < s.grouping_cost - 1e-3


def test_large_p_does_not_overflow():
    # the unscaled 64th powers of these distances overflow to inf
    c = Curve("a", [[0.0], [1e10], [2e10], [3e10], [4e10]])
    best = dtw_value(c, Curve("b", [[0.0], [3e10]]), 64.0)  # about 1.0173e10
    for detailed in (simplify_2approx_detailed, simplify_vertex_restricted_detailed):
        s = detailed(c, 2, 64.0)
        assert np.isfinite(s.grouping_cost)
        assert dtw_value(c, s.curve, 64.0) <= 2.0 * best


def test_determinism(rng):
    c = Curve("x", rng.normal(0, 3, (9, 2)))
    a = simplify_2approx(c, 3, 1.0)
    b = simplify_2approx(c, 3, 1.0)
    assert np.array_equal(a.points, b.points)
    a = simplify_eps_p1(c, 3, 0.1)
    b = simplify_eps_p1(c, 3, 0.1)
    assert np.array_equal(a.points, b.points)


# ---------------------------------------------------------------------------
# geometric median
# ---------------------------------------------------------------------------

def test_geometric_median_basics():
    assert np.allclose(geometric_median(np.array([[3.0, 4.0]])), [3.0, 4.0])
    assert np.allclose(geometric_median(np.array([[0.0], [2.0]])), [1.0])
    assert np.allclose(geometric_median(np.array([[5.0, 5.0]] * 7)), [5.0, 5.0])


def test_geometric_median_near_optimal_random(rng):
    for _ in range(10):
        pts = rng.normal(0, 1, (int(rng.integers(3, 8)), 2))
        gm = geometric_median(pts)
        brute = grid_median_cost(pts, pts.min(axis=0), pts.max(axis=0), 101)
        assert median_cost(pts, gm) <= brute + 1e-3


def test_geometric_median_handles_data_point_hits():
    # the optimum coincides with a data point; nudge-and-continue must not diverge
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    gm = geometric_median(pts)
    assert median_cost(pts, gm) <= median_cost(pts, [0.0, 0.0]) + 1e-5
