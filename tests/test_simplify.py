import itertools

import numpy as np
import pytest

from dtwmedian import _kernels, simplify
from dtwmedian.curves import Curve, ValidationError, gen_synthetic
from dtwmedian.dtw import Traversal, _distance_table, _pth_powers, _root, dtw_value, traversal_cost
from dtwmedian.simplify import (
    _medoid_cost_table,
    _partition,
    geometric_median,
    median_cost,
    simplify_2approx,
    simplify_2approx_detailed,
    simplify_eps_p1,
    simplify_eps_p1_detailed,
    simplify_exact_p2,
    simplify_exact_p2_detailed,
    simplify_set,
    simplify_vertex_restricted,
    simplify_vertex_restricted_detailed,
)
from conftest import curve1d, medoid_parts, needs_cc

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


def direct_medoid_table(dp):
    """Local-medoid cost table of one curve, each range [a, b] summed directly
    from a for every center v in it; the reference for the split sums."""
    m = dp.shape[0]
    cost = np.full((m, m), np.inf)
    for a in range(m):
        sums = np.cumsum(dp[a:, a:], axis=1)
        sums[np.tri(m - a, k=-1, dtype=bool)] = np.inf  # v = a + row must lie in [a, b]
        cost[a, a:] = sums.min(axis=0)
    return cost


def direct_medoid_center(dp, a, b):
    """The local medoid of the range [a, b]: the least direct sum of a center
    row over it, first index on ties. The rule the split-sum centers
    replaced, kept as their reference."""
    sums = dp[:, a : b + 1].sum(axis=1)
    return a + int(np.argmin(sums[a : b + 1]))


def table_order_sum(dp, v, a, b, restrict_to_range):
    """Row v's sum over [a, b] in the cost table's own order: split at v,
    leftwards and rightwards (restricted), or from a."""
    row = [float(x) for x in dp[v]]
    if not restrict_to_range:
        total = 0.0
        for j in range(a, b + 1):
            total += row[j]
        return total
    left = right = row[v]
    for j in range(v - 1, a - 1, -1):
        left += row[j]
    for j in range(v + 1, b + 1):
        right += row[j]
    return left + right


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
    s = simplify_eps_p1_detailed(same, 2)
    assert s.grouping_cost == 0.0
    assert np.allclose(s.curve.points, 2.0)

    s = simplify_eps_p1_detailed(curve1d(0, 2), 1)
    assert np.allclose(s.curve.points.ravel(), [1.0])  # coordinate-wise median
    assert s.grouping_cost == pytest.approx(2.0)

    tri = Curve("t", [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    s = simplify_eps_p1_detailed(tri, 1)
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
        simplify_exact_p2(c, 0)


def test_simplify_set_methods(rng):
    curves = [Curve(f"c{i}", rng.normal(0, 3, (int(rng.integers(1, 7)), 2))) for i in range(6)]
    # the vertex method caps ell at each curve's complexity
    assert list(simplify_set(curves, 4, 2.0, "vertex")) == [
        simplify_vertex_restricted(c, min(4, c.complexity), 2.0) for c in curves
    ]
    assert list(simplify_set(curves, 2, 1.0, "eps1")) == [simplify_eps_p1(c, 2) for c in curves]
    with pytest.raises(ValidationError):
        simplify_set(curves, 2, 1.0, "nearest")


def test_eps1_rejects_p_other_than_one():
    # geometric medians give the (1+eps) bound only under 1-DTW
    with pytest.raises(ValidationError):
        simplify_set([curve1d(0, 1, 2)], 1, 2.0, "eps1")


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
            simplify_eps_p1(c, ell),
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
        out = simplify_eps_p1_detailed(c, ell)
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
        s = simplify_eps_p1_detailed(c, ell)
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


def test_grouping_cost_is_the_lopsided_traversal_cost(rng):
    # the range sums of the cost table must not cancel: at p = 64 the scaled
    # powers of the big curve span about 40 orders of magnitude
    curves = [Curve("a", [[0.0], [1e10], [2e10], [3e10], [4e10]])]
    curves += [Curve("x", rng.normal(0, 3, (int(rng.integers(3, 12)), 2))) for _ in range(20)]
    for c in curves:
        for detailed in (simplify_2approx_detailed, simplify_vertex_restricted_detailed):
            for p in (1.0, 2.0, 64.0):
                s = detailed(c, 2, p)
                lopsided = Traversal(
                    tuple((g, j) for g, (a, b) in enumerate(s.parts) for j in range(a, b + 1))
                )
                realized = traversal_cost(s.curve, c, lopsided, p)
                assert s.grouping_cost == pytest.approx(realized, rel=1e-12)


def test_split_sums_match_the_direct_sums(rng):
    # a grouping total adds L(v, a) + (R(v, b) + the rest) for each part: the
    # m terms of its parts and one zero per part, in another order than the
    # direct sums from a, so the two stay within a relative (m + ell) 2^-52
    # (the simplify module docstring), and parts are equal. A center
    # attains the least split sum of its part, so its direct sum is within
    # a relative m 2^-52 of the direct medoid's, and it is the direct
    # medoid where no other vertex comes that close
    curves = [Curve("a", [[0.0], [1e10], [2e10], [3e10], [4e10]])]
    curves += [
        Curve("x", rng.normal(0, 3, (int(rng.integers(2, 40)), int(rng.integers(1, 4)))))
        for _ in range(30)
    ]
    for c in curves:
        m = c.complexity
        tol = m * 2.0**-52
        ell = int(rng.integers(1, m))
        for p in (1.0, 2.0, 3.0, 64.0):
            table = _distance_table(c.points[:, :, None], c.points[:, :, None])
            scale = _pth_powers(table[1:, 1:], p)
            dp = table[1:, 1:]
            (parts,), total = _partition(direct_medoid_table(dp[:, :, 0])[:, :, None], ell)
            s = simplify_2approx_detailed(c, ell, p)
            assert s.parts == parts
            for (a, b), center in zip(parts, s.curve.points):
                sums = dp[:, a : b + 1, 0].sum(axis=1)[a : b + 1]  # as direct_medoid_center
                old = direct_medoid_center(dp[:, :, 0], a, b)
                close = a + np.flatnonzero(sums <= sums[old - a] * (1 + tol))
                assert any(center.tobytes() == c.points[v].tobytes() for v in close)
                if close.size == 1:
                    assert center.tobytes() == c.points[old].tobytes()
            reference = float(_root(total, p, scale)[0])
            assert abs(s.grouping_cost - reference) <= (m + ell) * 2.0**-52 * reference


@pytest.mark.parametrize(
    "compiled", [pytest.param(True, marks=needs_cc), False], ids=["compiled", "reference"]
)
@pytest.mark.parametrize("m, ell, p", [(32, 4, 1.0), (128, 8, 2.0)], ids=["m32", "m128"])
def test_fused_partition_equals_the_direct_range_table(monkeypatch, compiled, m, ell, p):
    # random walks of the benchmark's shapes, 20 at each of 3 seeds: the DP
    # that picks each local medoid inside its levels gives the parts of
    # _partition over the direct range table, centered at the direct medoids
    if not compiled:
        monkeypatch.setattr(_kernels, "library", lambda: None)
    for seed in (1, 2, 3):
        pts = np.stack([c.points for c in gen_synthetic(20, 1, m, 2, 0.5, seed)])
        parts, centers, _ = medoid_parts(pts, ell, p, True)
        for t, points in enumerate(pts):
            table = _distance_table(points[:, :, None], points[:, :, None])
            _pth_powers(table[1:, 1:], p)
            dp = table[1:, 1:, 0]
            (direct,), _ = _partition(direct_medoid_table(dp)[:, :, None], ell)
            assert parts[t] == direct
            assert centers[t] == [direct_medoid_center(dp, a, b) for a, b in direct]


@pytest.mark.parametrize(
    "compiled", [pytest.param(True, marks=needs_cc), False], ids=["compiled", "reference"]
)
def test_each_center_is_the_first_vertex_attaining_its_entry(rng, monkeypatch, compiled):
    # ties: equal 1-D gaps at p = 1 and repeated integer-grid points
    if not compiled:
        monkeypatch.setattr(_kernels, "library", lambda: None)
    tied = curve1d(0, 1, 2, 3)  # at p = 1 the vertices 1 and 2 both cost 4
    for restrict_to_range in (True, False):
        (parts,), (centers,), _ = medoid_parts(tied.points[None], 1, 1.0, restrict_to_range)
        assert parts == ((0, 3),) and centers == [1]
    curves = [tied, Curve("a", [[0.0], [1e10], [2e10], [3e10], [4e10]])]
    curves += [curve1d(*rng.integers(0, 4, 9)) for _ in range(10)]
    curves += [Curve("g", rng.integers(0, 3, (10, 2)).astype(float)) for _ in range(10)]
    curves += [Curve("x", rng.normal(0, 3, (int(rng.integers(2, 12)), 2))) for _ in range(10)]
    for c in curves:
        for p in (1.0, 2.0, 3.0, 64.0):
            table = _distance_table(c.points[:, :, None], c.points[:, :, None])
            _pth_powers(table[1:, 1:], p)
            dp = table[1:, 1:, 0]
            cost, _ = _medoid_cost_table(table[1:, 1:])  # the vertex-restricted table
            for restrict_to_range in (True, False):
                ell = int(rng.integers(1, c.complexity + 1))
                (parts,), (centers,), _ = medoid_parts(c.points[None], ell, p, restrict_to_range)
                for (a, b), center in zip(parts, centers):
                    vertices = range(a, b + 1) if restrict_to_range else range(c.complexity)
                    sums = {v: table_order_sum(dp, v, a, b, restrict_to_range) for v in vertices}
                    entry = min(sums.values())  # a local-medoid entry is its least split sum
                    assert restrict_to_range or cost[a, b, 0] == entry
                    assert center == min(v for v in vertices if sums[v] == entry)


def test_simplify_set_equals_one_curve_calls(rng):
    shapes = [(7, 2), (9, 2), (7, 2), (7, 1), (9, 1), (3, 2), (2, 1), (1, 2), (12, 3)]
    curves = [Curve(f"c{i}", rng.normal(0, 3, shape)) for i, shape in enumerate(shapes)]
    curves += [Curve("dup0", curves[0].points.copy()), Curve("dup4", curves[4].points.copy())]
    curves.append(Curve("dup6", curves[6].points.copy()))  # complexity 2 <= ell
    ell = 3
    one_curve = {
        "two-approx": simplify_2approx,
        "vertex": lambda c, ell, p: simplify_vertex_restricted(c, min(ell, c.complexity), p),
    }
    # a set holds curves of one dimension: each dimension is one call
    by_dimension = {}
    for i, c in enumerate(curves):
        by_dimension.setdefault(c.dimension, []).append(i)
    for method, simplify_one in one_curve.items():
        for p in (1.0, 2.0):
            with pytest.raises(ValidationError, match="dimension"):
                simplify_set(curves, ell, p, method)
            out = [None] * len(curves)
            for members in by_dimension.values():
                simplified = simplify_set([curves[i] for i in members], ell, p, method)
                assert len(simplified) == len(members)
                for i, s in zip(members, simplified):
                    out[i] = s
            for c, s in zip(curves, out):
                ref = simplify_one(c, ell, p)
                assert s.id == ref.id
                assert s.points.tobytes() == ref.points.tobytes()
            assert out[-3].points.tobytes() == out[0].points.tobytes()
            assert out[-2].points.tobytes() == out[4].points.tobytes()


@pytest.mark.parametrize(
    "n, m, ell, p", [(60, 32, 4, 1.0), (12, 128, 8, 2.0)], ids=["many_short", "few_long"]
)
def test_simplify_set_on_benchmark_inputs_equals_one_curve_calls(n, m, ell, p):
    """Random walks of the benchmark's shapes, built as one batch, with two
    constant curves and one of two alternating values, which simplify to
    fewer parts: the curves of each part count are built as one batch."""
    curves = list(gen_synthetic(n, 1, m, 2, 0.5, seed=n))
    curves += [Curve("flat0", np.zeros((m, 2))), Curve("flat1", np.ones((m, 2)))]
    curves.append(Curve("two", np.arange(m * 2).reshape(m, 2) // m))
    one_curve = {
        "two-approx": simplify_2approx_detailed,
        "vertex": simplify_vertex_restricted_detailed,
    }
    for method, simplify_one in one_curve.items():
        out = simplify_set(curves, ell, p, method)
        counts = set()
        for c, s in zip(curves, out):
            ref = simplify_one(c, ell, p)
            counts.add(ref.curve.complexity)
            assert s.id == ref.curve.id
            assert s.points.tobytes() == ref.curve.points.tobytes()
            assert s.points.flags.c_contiguous and not s.points.flags.writeable
        assert len(counts) > 1


def test_results_do_not_depend_on_the_chunk_size(rng, monkeypatch):
    # one curve of large coordinates among small ones: for p > 32 each curve
    # of a batch keeps its own scale; on the compiled path where a library
    # can be built, and on the numpy reference, whose chunks are batches. A
    # chunk never holds fewer curves than the compiled lanes, so the 14
    # curves go in chunks of 4, 4, 4 and 2.
    curves = [Curve(f"c{i}", rng.normal(0, 3, (9, 2))) for i in range(12)]
    curves.append(Curve("big", 1e10 * rng.normal(0, 3, (9, 2))))
    curves.append(Curve("dup", curves[0].points.copy()))
    pts = np.stack([c.points for c in curves])
    partitions = simplify._medoid_partitions
    for library, p in itertools.product((_kernels.library, lambda: None), (1.0, 2.0, 3.0, 64.0)):
        monkeypatch.setattr(_kernels, "library", library)
        for restrict_to_range in (True, False):
            method = "two-approx" if restrict_to_range else "vertex"
            full = simplify_set(curves, 3, p, method)
            chunks = []
            with monkeypatch.context() as patch:
                patch.setattr(simplify, "_BLOCK_CELLS", 1)
                patch.setattr(
                    simplify, "_medoid_partitions",
                    lambda pts, *args: chunks.append(partitions(pts, *args)) or chunks[-1],
                )
                chunked = simplify_set(curves, 3, p, method)
            # ends, counts, centers and costs, chunk by chunk and at once
            assert [len(counts) for _, counts, _, _ in chunks] == [4, 4, 4, 2]
            whole = partitions(pts, 3, p, restrict_to_range)
            for at_once, by_chunk in zip(whole, zip(*chunks)):
                assert at_once.tobytes() == np.concatenate(by_chunk).tobytes()
            for a, b in zip(full, chunked):
                assert a.id == b.id
                assert a.points.tobytes() == b.points.tobytes()
            assert full[-1].points.tobytes() == full[0].points.tobytes()


def test_determinism(rng):
    c = Curve("x", rng.normal(0, 3, (9, 2)))
    a = simplify_2approx(c, 3, 1.0)
    b = simplify_2approx(c, 3, 1.0)
    assert np.array_equal(a.points, b.points)
    a = simplify_eps_p1(c, 3)
    b = simplify_eps_p1(c, 3)
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
