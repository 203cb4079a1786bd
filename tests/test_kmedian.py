import numpy as np
import pytest

from dtwmedian.curves import Curve, ResourceGuardError, ValidationError
from dtwmedian.closure import build_closure, shortest_path_closure
from dtwmedian.kmedian import (
    FiniteMetricInstance,
    kmedian_brute,
    kmedian_local_search,
    solution_for_centers,
)

TOL = 1e-9

LINE = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 9.0], [10.0, 9.0, 0.0]])


def random_metric(rng, n):
    w = rng.uniform(0.1, 3.0, (n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    return shortest_path_closure(w)


def test_line_instance_brute_and_local():
    inst = FiniteMetricInstance(LINE, np.ones(3), 1)
    assert kmedian_brute(inst).centers == (1,)
    assert kmedian_brute(inst).cost == pytest.approx(10.0)
    sol = kmedian_local_search(inst, 0.5, 0)
    assert sol.centers == (1,) and sol.cost == pytest.approx(10.0)


def test_weighted_instance_moves_center():
    inst = FiniteMetricInstance(LINE, np.array([100.0, 1.0, 1.0]), 1)
    assert kmedian_brute(inst).centers == (0,)
    assert kmedian_local_search(inst, 0.5, 3).centers == (0,)


def test_k_equals_n():
    inst = FiniteMetricInstance(LINE, np.ones(3), 3)
    sol = kmedian_local_search(inst, 0.5, 0)
    assert sol.cost == 0.0 and sol.centers == (0, 1, 2)


def test_all_points_identical():
    inst = FiniteMetricInstance(np.zeros((4, 4)), np.ones(4), 2)
    assert kmedian_brute(inst).cost == 0.0


def test_k_equals_n_minus_one(rng):
    d = random_metric(rng, 6)
    w = rng.uniform(0.5, 2.0, 6)
    inst = FiniteMetricInstance(d, w, 5)
    brute = kmedian_brute(inst)
    # cheapest excluded point pays weight * nearest-neighbor distance
    expected = min(
        w[i] * np.min(d[i, np.arange(6) != i]) for i in range(6)
    )
    assert brute.cost == pytest.approx(expected, abs=TOL)


def test_validation_and_guards():
    with pytest.raises(ValidationError):
        FiniteMetricInstance(LINE, np.ones(3), 4)
    with pytest.raises(ValidationError):
        FiniteMetricInstance(LINE, np.array([1.0, -1.0, 1.0]), 1)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError):
            FiniteMetricInstance(LINE, np.array([bad, 1.0, 1.0]), 1)
    with_nan = LINE.copy()
    with_nan[0, 2] = with_nan[2, 0] = np.nan
    with pytest.raises(ValidationError):
        FiniteMetricInstance(with_nan, np.ones(3), 1)
    # the test reads the minimum, which one NaN anywhere makes NaN, and one
    # negative or -inf entry negative
    for bad in (np.nan, -1.0, -np.inf):
        for at in ((2, 2), (0, 0), (2, 0), (1, 2)):
            with_bad = LINE.copy()
            with_bad[at] = bad
            with pytest.raises(ValidationError):
                FiniteMetricInstance(with_bad, np.ones(3), 1)
    big = np.zeros((80, 80))
    with pytest.raises(ResourceGuardError):
        kmedian_brute(FiniteMetricInstance(big, np.ones(80), 30))
    with pytest.raises(ValidationError):
        kmedian_local_search(FiniteMetricInstance(LINE, np.ones(3), 1), eps=1.5)


def test_inf_distances_are_allowed():
    """An isolated point is inf away from the others; it must be a center."""
    isolated = LINE.copy()
    isolated[2, :2] = isolated[:2, 2] = np.inf
    inst = FiniteMetricInstance(isolated, np.ones(3), 2)
    sol = kmedian_local_search(inst, 0.5, 0)
    assert 2 in sol.centers and sol.cost == 1.0
    assert kmedian_brute(inst).cost == 1.0


def test_assignment_optimality_and_ties(rng):
    for _ in range(20):
        n = int(rng.integers(3, 10))
        inst = FiniteMetricInstance(
            random_metric(rng, n), rng.uniform(0.5, 2.0, n), int(rng.integers(1, 4))
        )
        sol = kmedian_local_search(inst, 0.5, int(rng.integers(100)))
        rows = inst.dist[list(sol.centers)]
        for i in range(n):
            assert inst.dist[sol.assignment[i], i] == pytest.approx(
                rows[:, i].min(), abs=TOL
            )
        # recomputed cost matches
        assert sol.cost == pytest.approx(
            float(np.sum(inst.weights * rows.min(axis=0))), abs=TOL
        )
    # ties go to the lowest center index
    dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 2.0], [1.0, 2.0, 0.0]])
    sol = solution_for_centers(FiniteMetricInstance(dist, np.ones(3), 2), (1, 2))
    assert sol.assignment[0] == 1


def test_determinism(rng):
    inst = FiniteMetricInstance(random_metric(rng, 9), np.ones(9), 3)
    a = kmedian_local_search(inst, 0.5, 7)
    b = kmedian_local_search(inst, 0.5, 7)
    assert a.centers == b.centers and a.cost == b.cost
    assert np.array_equal(a.assignment, b.assignment)


def test_local_search_five_approx(rng):
    for trial in range(60):
        n = int(rng.integers(3, 13))
        k = int(rng.integers(1, 4))
        if k > n:
            continue
        inst = FiniteMetricInstance(
            random_metric(rng, n), rng.uniform(0.5, 2.0, n), k
        )
        brute = kmedian_brute(inst).cost
        local = kmedian_local_search(inst, 0.5, trial).cost
        assert local <= 5.5 * brute + TOL


def test_approximation_transfer(rng):
    # a solution alpha-optimal under the closure of the restriction stays
    # alpha*zeta-optimal under the restriction of the closure
    for trial in range(10):
        curves = [
            Curve(f"c{i}", rng.normal(0, 3, (int(rng.integers(1, 5)), 2)))
            for i in range(8)
        ]
        m = max(c.complexity for c in curves)
        p = float(rng.choice([1.0, 2.0]))
        zeta = (2 * m) ** (1.0 / p)
        sub = sorted(rng.choice(8, size=5, replace=False))
        inner = build_closure([curves[i] for i in sub], p).dist  # closure of phi|_Y
        outer = build_closure(curves, p).dist[np.ix_(sub, sub)]  # closure of phi, on Y
        k = int(rng.integers(1, 3))
        inst_inner = FiniteMetricInstance(inner, np.ones(5), k)
        inst_outer = FiniteMetricInstance(outer, np.ones(5), k)
        sol = kmedian_brute(inst_inner)  # alpha = 1 under the inner metric
        opt_outer = kmedian_brute(inst_outer).cost
        outer_cost = solution_for_centers(inst_outer, sol.centers).cost
        assert outer_cost <= zeta * opt_outer + TOL


def test_centers_stay_distinct_when_every_distance_is_zero():
    # once every remaining distance is 0 the farthest point may be a center
    zeros = np.zeros((6, 6))
    two_groups = np.array(
        [[0.0, 0.0, 5.0, 5.0], [0.0, 0.0, 5.0, 5.0], [5.0, 5.0, 0.0, 0.0], [5.0, 5.0, 0.0, 0.0]]
    )
    for dist in (zeros, two_groups):
        inst = FiniteMetricInstance(dist, np.ones(len(dist)), 3)
        for seed in range(6):
            sol = kmedian_local_search(inst, 0.5, seed)
            assert len(set(sol.centers)) == 3
            assert sol.cost == kmedian_brute(inst).cost


def test_the_layout_of_dist_does_not_change_the_solution(rng):
    # the compiled search reads dist and weights row-major and contiguous:
    # a transposed (Fortran-ordered) or a strided input is stored that way
    big = random_metric(rng, 60)
    d = np.ascontiguousarray(big[:40, :40])
    w = rng.uniform(0.5, 2.0, 40)
    expected = kmedian_local_search(FiniteMetricInstance(d, w, 3), 0.5, 5)
    for dist, weights in ((d.T, w), (big[:40, :40], np.repeat(w, 2)[::2])):
        assert not dist.flags.c_contiguous
        inst = FiniteMetricInstance(dist, weights, 3)
        assert inst.dist.flags.c_contiguous and inst.weights.flags.c_contiguous
        sol = kmedian_local_search(inst, 0.5, 5)
        assert sol.centers == expected.centers and sol.cost == expected.cost
        assert np.array_equal(sol.assignment, expected.assignment)
