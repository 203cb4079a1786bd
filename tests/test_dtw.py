import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dtwmedian import _kernels
from dtwmedian.curves import Curve, ValidationError
from dtwmedian.dtw import (
    adtw,
    ball_membership,
    dtw,
    dtw_aligned,
    dtw_brute,
    dtw_matrix,
    dtw_self_matrix,
    dtw_value,
    enumerate_traversals,
    traversal_cost,
)
from conftest import curve1d, make_curve, make_pair

TOL = 1e-9


def test_self_distance_zero(rng):
    c = make_curve(rng)
    assert dtw(c, c, 2.0).value == 0.0


def test_single_point_pair():
    assert dtw(curve1d(0), curve1d(3), 1.0).value == 3.0
    assert dtw(curve1d(0), curve1d(3), 7.0).value == 3.0


def test_two_vs_three_point_example():
    a = curve1d(0, 2)
    b = curve1d(0, 1, 2)
    assert abs(dtw(a, b, 1.0).value - 1.0) < TOL
    assert abs(dtw_brute(a, b, 1.0).value - 1.0) < TOL


def test_traversal_counts():
    assert sum(1 for _ in enumerate_traversals(1, 1)) == 1
    assert sum(1 for _ in enumerate_traversals(2, 2)) == 3


def test_brute_guard():
    a = curve1d(*range(7))
    b = curve1d(*range(7))
    with pytest.raises(ValidationError):
        dtw_brute(a, b, 1.0)


def test_dimension_mismatch():
    with pytest.raises(ValidationError):
        dtw(Curve("a", [[0.0]]), Curve("b", [[0.0, 1.0]]), 1.0)


def test_oracle_equivalence_random(rng):
    for _ in range(150):
        p = float(rng.choice([1.0, 2.0, 3.0]))
        a, b = make_pair(rng)
        r = dtw(a, b, p)
        rb = dtw_brute(a, b, p)
        assert abs(r.value - rb.value) <= TOL
        r.traversal.validate(a.complexity, b.complexity)
        assert abs(traversal_cost(a, b, r.traversal, p) - r.value) <= TOL


def test_symmetry_exact(rng):
    for _ in range(60):
        p = float(rng.choice([1.0, 2.0, 3.0]))
        a, b = make_pair(rng)
        assert dtw(a, b, p).value == dtw(b, a, p).value


def test_batched_matrix_matches_scalar(rng):
    # every entry point gives the same bits for the same pair
    d = int(rng.integers(1, 4))
    curves = [Curve(f"c{i}", rng.normal(0, 2, (int(rng.integers(1, 7)), d))) for i in range(8)]
    curves += [Curve("one", rng.normal(0, 2, (1, d))), Curve("dup", curves[0].points)]
    n = len(curves)
    for p in (1.0, 2.0, 3.0, 7.0, 64.0):
        full = dtw_self_matrix(curves, p)
        cross = dtw_matrix(curves, curves, p)
        aligned = dtw_aligned(curves, curves[::-1], p)
        for i in range(n):
            for j in range(n):
                ref = dtw(curves[i], curves[j], p).value
                assert dtw_value(curves[i], curves[j], p) == ref
                assert cross[i, j] == ref
                if i != j:
                    assert full[i, j] == ref
            assert aligned[i] == dtw(curves[i], curves[n - 1 - i], p).value
        assert full[0, n - 1] == 0.0


def test_values_do_not_depend_on_the_chunk_size(rng, monkeypatch):
    # the numpy reference evaluates pairs in chunks; the compiled loop does not
    monkeypatch.setattr(_kernels, "library", lambda: None)
    # the package re-exports the function dtw, which shadows the module
    module = sys.modules["dtwmedian.dtw"]
    curves = [Curve(f"c{i}", rng.normal(0, 2, (int(rng.integers(1, 9)), 2))) for i in range(12)]
    curves.append(Curve("dup", curves[0].points))
    for p in (1.0, 2.0, 3.0, 64.0):
        full = dtw_self_matrix(curves, p)
        cross = dtw_matrix(curves[:5], curves, p)
        with monkeypatch.context() as patch:
            patch.setattr(module, "_BLOCK_CELLS", 1)
            assert np.array_equal(dtw_self_matrix(curves, p), full)
            assert np.array_equal(dtw_matrix(curves[:5], curves, p), cross)


def test_matrices_give_dtw_value_bits_and_zero_between_duplicates(rng):
    base = [Curve(f"c{i}", rng.normal(0, 2, (int(rng.integers(2, 7)), 2))) for i in range(4)]
    base.append(Curve("one", rng.normal(0, 2, (1, 2))))
    # duplicates under other ids, mixed in with the curves they repeat
    curves = base[:2] + [Curve("dup0", base[0].points)] + base[2:]
    curves += [Curve("dup_one", base[4].points), Curve("dup2", base[2].points)]
    same = [(0, 2), (5, 6), (3, 7)]
    for p in (1.0, 2.0, 3.0, 64.0):
        full = dtw_self_matrix(curves, p)
        cross = dtw_matrix(curves[:4], curves, p)
        ref = np.array([[dtw_value(a, b, p) for b in curves] for a in curves])
        assert full.tobytes() == ref.tobytes()
        assert cross.tobytes() == ref[:4].tobytes()
        for i, j in same:
            assert full[i, j] == full[j, i] == 0.0
        assert cross[0, 2] == cross[2, 0] == 0.0


@pytest.mark.parametrize("p", [0.5, math.inf, math.nan])
def test_p_below_one_infinite_or_nan_raises(p):
    # at p = inf each pair's scaled powers are 0 or 1 and the root is 1, so
    # [0, 10] against [0, 0, 10] would give 10, where p = 64 gives 0
    a, b = curve1d(0, 10), curve1d(0, 0, 10)
    for call in (dtw, dtw_value, lambda a, b, p: dtw_matrix([a], [b], p)):
        with pytest.raises(ValidationError, match="p must be >= 1 and finite"):
            call(a, b, p)
    assert dtw_value(a, b, 64.0) == 0.0


def test_large_p_overflow_safe():
    # a distance of 1e10 overflows x**64 (1e640) unless rescaled by the max
    a = curve1d(0, 2e10)
    b = curve1d(1e10)
    v = dtw(a, b, 64.0).value
    assert math.isfinite(v)
    assert v == pytest.approx(1e10 * 2 ** (1 / 64.0))
    # single forced pair: value equals the pointwise distance for any p
    assert dtw(curve1d(0), curve1d(1e100), 50.0).value == pytest.approx(1e100)
    assert dtw_matrix([a], [b], 64.0)[0, 0] == pytest.approx(1e10 * 2 ** (1 / 64.0))


def test_tie_break_prefers_diagonal():
    # all-zero costs: every traversal costs 0; diagonal-first backtracking
    # yields the staircase of maximal diagonal steps
    a = Curve("a", [[0.0], [0.0], [0.0]])
    b = Curve("b", [[0.0], [0.0], [0.0]])
    r = dtw(a, b, 1.0)
    assert r.traversal.pairs == ((0, 0), (1, 1), (2, 2))


# ---------------------------------------------------------------------------
# ball membership and quantized distance
# ---------------------------------------------------------------------------

def test_ball_membership_examples():
    s, t = curve1d(0), curve1d(3)
    assert ball_membership(t, s, 4.0, 1.0, 0.5) == 1  # dtw = 3 <= r
    assert ball_membership(t, s, 1.0, 1.0, 0.1) == 0  # dtw = 3 > (1+eps) r
    a = curve1d(0, 2)
    b = curve1d(0, 1, 2)
    out = ball_membership(b, a, 1.05, 1.0, 0.5)
    assert out in (0, 1)
    if out == 1:
        assert dtw_value(a, b, 1.0) <= 1.5 * 1.05 + TOL


def test_ball_membership_guarantees_random(rng):
    for _ in range(200):
        p = float(rng.choice([1.0, 2.0, 3.0]))
        eps = float(rng.choice([0.1, 0.5, 1.0]))
        a, b = make_pair(rng)
        v = dtw_value(a, b, p)
        if v == 0.0:
            continue
        assert ball_membership(b, a, v * 1.0001, p, eps) == 1
        assert ball_membership(b, a, v / (1.0 + eps) / 1.0001, p, eps) == 0


def test_ball_membership_monotone_in_r(rng):
    for _ in range(100):
        p = float(rng.choice([1.0, 2.0, 3.0]))
        eps = float(rng.choice([0.1, 0.5, 1.0]))
        a, b = make_pair(rng)
        v = dtw_value(a, b, p)
        if v == 0.0:
            continue
        z0 = math.floor(math.log(v) / math.log(1 + eps)) - 5
        outs = [
            ball_membership(b, a, (1 + eps) ** (z0 + i), p, eps) for i in range(10)
        ]
        assert all(x <= y for x, y in zip(outs, outs[1:]))


def test_ball_membership_validation():
    a, b = curve1d(0), curve1d(1)
    with pytest.raises(ValidationError):
        ball_membership(a, b, 0.0, 1.0, 0.5)
    with pytest.raises(ValidationError):
        ball_membership(a, b, 1.0, 1.0, 0.0)


def test_adtw_exact_zero():
    c = curve1d(0, 2)
    q = adtw(c, c, 1.0, 0.5)
    assert q.value == 0.0 and q.is_zero


def test_adtw_single_pair_window():
    q = adtw(curve1d(0), curve1d(3), 1.0, 0.5)
    assert 3.0 < q.value <= 4.5 + TOL
    assert q.value == pytest.approx(1.5 ** (q.exponent + 1))


def test_adtw_sandwich_random(rng):
    for _ in range(150):
        p = float(rng.choice([1.0, 2.0, 3.0]))
        a, b = make_pair(rng)
        v = dtw_value(a, b, p)
        if v == 0.0:
            continue
        for eps in (0.1, 0.5, 1.0):
            q = adtw(a, b, p, eps)
            assert v < q.value + TOL
            assert q.value <= (1 + eps) * v + TOL


def test_adtw_eps_one_factor_two(rng):
    for _ in range(50):
        a, b = make_pair(rng)
        v = dtw_value(a, b, 1.0)
        if v == 0.0:
            continue
        q = adtw(a, b, 1.0, 1.0)
        assert v < q.value + TOL <= 2 * v + 2 * TOL


def test_membership_consistency_implications(rng):
    # derivable two-sided relation: adtw <= r implies membership(r) = 1,
    # and membership(r) = 1 implies adtw <= (1+eps)^2 r
    checked = 0
    for _ in range(80):
        p = float(rng.choice([1.0, 2.0]))
        eps = float(rng.choice([0.1, 0.5, 1.0]))
        a, b = make_pair(rng)
        v = dtw_value(a, b, p)
        if v == 0.0:
            continue
        q = adtw(a, b, p, eps)
        z0 = math.floor(math.log(v) / math.log(1 + eps)) - 4
        for i in range(8):
            r = (1 + eps) ** (z0 + i)
            out = ball_membership(b, a, r, p, eps)
            if q.value <= r * (1 + TOL):
                assert out == 1
                checked += 1
            if out == 1:
                assert q.value <= (1 + eps) ** 2 * r * (1 + TOL)
    assert checked > 0


# ---------------------------------------------------------------------------
# relaxed triangle inequalities
# ---------------------------------------------------------------------------

def test_weak_triangle_inequality(rng):
    for _ in range(300):
        p = float(rng.choice([1.0, 2.0, 3.0]))
        m = int(rng.integers(1, 7))
        d = int(rng.integers(1, 4))
        x = Curve("x", rng.normal(0, 2, (m, d)))
        z = Curve("z", rng.normal(0, 2, (m, d)))
        y = Curve("y", rng.normal(0, 2, (int(rng.integers(1, 7)), d)))
        lhs = dtw_value(x, z, p)
        rhs = m ** (1.0 / p) * (dtw_value(x, y, p) + dtw_value(y, z, p))
        assert lhs <= rhs + TOL


def test_iterated_triangle_inequality(rng):
    for _ in range(150):
        p = float(rng.choice([1.0, 2.0, 3.0]))
        d = int(rng.integers(1, 4))
        ls, lt = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        s = Curve("s", rng.normal(0, 2, (ls, d)))
        t = Curve("t", rng.normal(0, 2, (lt, d)))
        chain = [
            Curve(f"x{i}", rng.normal(0, 2, (int(rng.integers(1, 7)), d)))
            for i in range(int(rng.integers(1, 5)))
        ]
        total = dtw_value(s, chain[0], p)
        total += sum(dtw_value(chain[i], chain[i + 1], p) for i in range(len(chain) - 1))
        total += dtw_value(chain[-1], t, p)
        assert dtw_value(s, t, p) <= (ls + lt) ** (1.0 / p) * total + TOL


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=3),
    st.sampled_from([1.0, 2.0, 3.0]),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_hypothesis_oracle_equivalence(m, l, d, p, seed):
    local = np.random.default_rng(seed)
    a = Curve("a", local.normal(0, 2, (m, d)))
    b = Curve("b", local.normal(0, 2, (l, d)))
    r, rb = dtw(a, b, p), dtw_brute(a, b, p)
    assert abs(r.value - rb.value) <= TOL
    r.traversal.validate(m, l)
