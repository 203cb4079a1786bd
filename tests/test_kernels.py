"""The compiled library against its numpy references: the DTW lanes, the
medoid simplification and the k-median local search run compiled when a
compiler exists and the host has AVX2, and other hosts get the same bits
from the references."""

import ctypes
import itertools
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import dtwmedian
from dtwmedian import _kernels, kmedian, simplify
from dtwmedian.curves import Curve, CurveSet, ValidationError
from dtwmedian.dtw import dtw_aligned, dtw_matrix, dtw_self_matrix, dtw_value
from dtwmedian.kmedian import FiniteMetricInstance, kmedian_local_search
from dtwmedian.simplify import (
    simplify_2approx_detailed,
    simplify_set,
    simplify_vertex_restricted_detailed,
)
from conftest import medoid_parts, needs_cc

# the package re-exports the function dtw, which shadows the module
dtw_module = sys.modules["dtwmedian.dtw"]

P_VALUES = (1.0, 2.0, 3.0, 64.0)
SEED = 7


def grid_curves(rng, d):
    """Curves of 10 integer points in [0, 2]^d: many vertices tie for the
    medoid of a part."""
    return [Curve(f"g{i}", rng.integers(0, 3, (10, d)).astype(float)) for i in range(4)]


def mixed_curves(rng, d):
    """Complexities 1 to 10, one curve of 1e10-scaled coordinates, duplicates
    under other ids, integer-grid curves, and last two curves of complexity
    11 given as column-major arrays."""
    curves = [Curve(f"c{i}", rng.normal(0, 3, (int(rng.integers(2, 10)), d))) for i in range(8)]
    curves.append(Curve("one", rng.normal(0, 3, (1, d))))
    curves.append(Curve("big", 1e10 * rng.normal(0, 3, (7, d))))
    curves += [Curve("dup0", curves[0].points), Curve("dup_big", curves[-1].points)]
    curves += grid_curves(rng, d)
    curves += [Curve(f"f{i}", rng.normal(0, 3, (d, 11)).T) for i in range(2)]
    return curves


def grid_cases(rng, d):
    """Pairs of curve sets (rows, columns) for dtw_grid: grids of 0 x n,
    n x 0, 1 x 1, 1 x n, n x 1 and n x m; rows of lengths 1-12, five of
    them of one length with one of those scaled by 1e10, so that the lanes
    of one group take different scales at p = 64; a selection with repeats
    against a set in another buffer, on either side, and against itself."""
    lengths = [5, 1, 12, 5, 3, 5, 7, 5, 2, 9, 5, 11, 4, 6]
    rows = CurveSet([Curve(f"r{i}", rng.normal(0, 3, (m, d))) for i, m in enumerate(lengths)])
    rows = CurveSet([*rows[:3], Curve("big", 1e10 * rows[3].points), *rows[4:]])
    cols = CurveSet(
        [Curve(f"c{i}", rng.normal(0, 3, (int(rng.integers(1, 13)), d))) for i in range(6)]
    )
    chosen = rows.take([3, 0, 3, 7, 12, 12, 5, 3, 9])
    return [
        (rows[:0], cols), (cols, rows[:0]), (rows[:1], cols[:1]), (rows[:1], cols),
        (rows, cols[:1]), (rows, cols), (chosen, cols), (cols, chosen), (chosen, chosen),
    ]


def assert_grids_have_the_reference_bits():
    """Every grid case, at d = 1 and 3 and every p in P_VALUES: dtw_matrix
    has the bits of _grouped_pair_values over all its pairs and of one
    dtw_value call per pair, and dtw_aligned over the pairs has them too."""
    for d in (1, 3):
        for a, b in grid_cases(np.random.default_rng(SEED + d), d):
            rows, cols = np.divmod(np.arange(len(a) * len(b)), len(b))
            for p in P_VALUES:
                cross = dtw_matrix(a, b, p)
                assert cross.shape == (len(a), len(b))
                one_by_one = [dtw_value(a[r], b[c], p) for r, c in zip(rows, cols)]
                assert cross.tobytes() == np.array(one_by_one).tobytes()
                aligned = dtw_aligned(a.take(rows), b.take(cols), p)
                assert cross.tobytes() == aligned.tobytes()
                if rows.size:
                    grouped = dtw_module._grouped_pair_values(a, b, rows, cols, p)
                    assert cross.tobytes() == grouped.tobytes()


def self_matrix_lists(rng, d):
    """Curve lists for self matrices: for each n in 0, 1, 2, 3, 5, 9, one
    list of curves of one length, from one block, so that the last group of
    rows takes every size, and one of lengths 1-12 given as column-major
    arrays. From three curves on, the one-length list has a 1e10-scaled
    curve and the mixed list a duplicate of its first curve under another
    id."""
    lists = []
    for n in (0, 1, 2, 3, 5, 9):
        block = rng.normal(0, 3, (n, int(rng.integers(1, 13)), d))
        lengths = rng.integers(1, 13, n)
        mixed = [Curve(f"m{i}", rng.normal(0, 3, (d, m)).T) for i, m in enumerate(lengths)]
        if n >= 3:
            block[n // 2] *= 1e10
            mixed[-1] = Curve("dup", mixed[0].points)
        lists += [[Curve(f"s{i}", points) for i, points in enumerate(block)], mixed]
    return lists


def assert_self_matrices_have_the_reference_bits():
    """Every self-matrix list, at d = 1, 2, 3 and every p in P_VALUES, gives
    the bits of _grouped_pair_values, of one dtw_value call per pair, and of
    dtw_self_matrix where the library cannot be built."""
    for d in (1, 2, 3):
        for curves in self_matrix_lists(np.random.default_rng(SEED + d), d):
            n = len(curves)
            for p in P_VALUES:
                full = dtw_self_matrix(curves, p)
                with mock.patch.object(_kernels, "library", lambda: None):
                    fallback = dtw_self_matrix(curves, p)
                one_by_one = np.array([[dtw_value(a, b, p) for b in curves] for a in curves])
                assert full.shape == (n, n)
                assert full.tobytes() == fallback.tobytes() == one_by_one.tobytes()
                if n:
                    rows, cols = np.divmod(np.arange(n * n), n)
                    store = CurveSet(curves)
                    grouped = dtw_module._grouped_pair_values(store, store, rows, cols, p)
                    assert full.tobytes() == grouped.tobytes()


def medoid_batches(rng, d):
    """Batches of curves of one complexity for the lanes of
    medoid_partition. For each count from 1 to 9, one of normal curves and
    one of integer-grid curves, so that every padded last group of the 4
    lanes occurs. In the normal batches one curve is scaled by 1e10, so
    that from two curves on the lanes of one group take different scales at
    p = 64; in the grid batches many vertices tie for a medoid and many
    splits tie. Then for each complexity from 1 to 20, and at d = 2 the
    benchmark's 128, one batch of three normal curves, one of them scaled by
    1e10, and two grid curves: up to 8 points they meet ell = 1, 3, 5 and
    8 below, at and above their own length, and the longer ones run up to
    eight levels of the partition DP, each a pass over rows of every length
    from 1 to the complexity."""
    batches = []
    for count in range(1, 10):
        m = 6 + count % 3
        normal = rng.normal(0, 3, (count, m, d))
        normal[count // 2] *= 1e10
        batches += [normal, rng.integers(0, 3, (count, m, d)).astype(float)]
    for m in (*range(1, 21), 128) if d == 2 else range(1, 21):
        normal = rng.normal(0, 3, (3, m, d))
        normal[1] *= 1e10
        batches.append(np.concatenate([normal, rng.integers(0, 3, (2, m, d)).astype(float)]))
    return batches


def assert_medoid_lanes_have_the_reference_bits():
    """Every medoid batch, at d = 1, 2, 3, every p in P_VALUES, ell = 1, 3,
    5, 8 and with and without restrict_to_range, gives the part ends,
    counts, centers and costs of the numpy reference, and, for curves of
    more than ell points, the parts, curves and costs of one one-curve call
    per curve."""
    one_curve = {True: simplify_2approx_detailed, False: simplify_vertex_restricted_detailed}
    for d in (1, 2, 3):
        for pts in medoid_batches(np.random.default_rng(SEED + d), d):
            for p, ell, restrict_to_range in itertools.product(
                P_VALUES, (1, 3, 5, 8), (True, False)
            ):
                args = (pts, ell, p, restrict_to_range)
                compiled = simplify._medoid_partitions(*args)
                with mock.patch.object(_kernels, "library", lambda: None):
                    reference = simplify._medoid_partitions(*args)
                for a, b in zip(compiled, reference):
                    assert a.tobytes() == b.tobytes()
                if pts.shape[1] <= ell:
                    continue
                parts, centers, costs = medoid_parts(*args)
                for t, points in enumerate(pts):
                    s = one_curve[restrict_to_range](Curve("c", points), ell, p)
                    assert s.parts == parts[t]
                    assert s.curve.points.tobytes() == points[centers[t]].tobytes()
                    assert np.float64(s.grouping_cost).tobytes() == costs[t].tobytes()


def metric_instance(rng, n, k, duplicates=0, isolated=False):
    """Euclidean distances of n random points in the plane, the last
    ``duplicates`` points copies of the first ones, the last point inf away
    from all others if ``isolated``, and non-uniform weights."""
    points = rng.normal(0.0, 3.0, (n, 2))
    if duplicates:
        points[n - duplicates :] = points[:duplicates]
    dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=2))
    if isolated:
        dist[-1, :-1] = dist[:-1, -1] = np.inf
    return FiniteMetricInstance(dist, rng.uniform(0.1, 5.0, n), k)


def all_results(rng):
    """Every batched DTW value and medoid simplification of mixed curves, as
    bytes, the parts, center indices and costs of the medoid partitions of
    integer-grid curves, for p in P_VALUES and d = 1, 2, 3, and the k-median
    local search on metric instances up to n = 720."""
    out = []
    for n, k, duplicates in ((9, 1, 0), (12, 3, 4), (40, 5, 10), (100, 70, 0), (720, 4, 20)):
        inst = metric_instance(rng, n, k, duplicates)
        sol = kmedian_local_search(inst, 0.5, int(rng.integers(100)))
        out.append((sol.centers, sol.cost.hex(), sol.assignment.tobytes()))
    for d in (1, 2, 3):
        curves = mixed_curves(rng, d)
        grid = np.stack([c.points for c in grid_curves(rng, d)])
        for p in P_VALUES:
            for ell, restrict_to_range in itertools.product((1, 3), (True, False)):
                parts, centers, costs = medoid_parts(grid, ell, p, restrict_to_range)
                out.append((parts, centers, costs.tobytes()))
            out.append(dtw_self_matrix(curves, p).tobytes())
            out.append(dtw_matrix(curves[:5], curves, p).tobytes())
            out.append(dtw_self_matrix(curves[-2:], p).tobytes())
            for method in ("two-approx", "vertex"):
                out += [(c.id, c.points.tobytes()) for c in simplify_set(curves, 3, p, method)]
            for c in curves:
                for detailed in (simplify_2approx_detailed, simplify_vertex_restricted_detailed):
                    s = detailed(c, min(2, c.complexity), p)
                    out.append((s.parts, s.grouping_cost))
    return out


@needs_cc
def test_the_compiled_loops_run_with_the_reference_bits(monkeypatch):
    def no_fallback(*args, **kwargs):
        raise AssertionError("a numpy reference ran in place of the compiled loop")

    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "library", lambda: None)
        reference = all_results(np.random.default_rng(SEED))
    for module, name in (
        (dtw_module, "_grouped_pair_values"),
        (dtw_module, "_accumulate"),
        (simplify, "_medoid_cost_table"),
        (simplify, "_local_medoid_partition"),
        (simplify, "_partition"),
        (kmedian, "_rounds_reference"),
    ):
        monkeypatch.setattr(module, name, no_fallback)
    assert _kernels.library() is not None
    assert all_results(np.random.default_rng(SEED)) == reference


def test_a_failed_build_gives_the_same_bits(fresh_library, monkeypatch, tmp_path):
    compiled = all_results(np.random.default_rng(SEED))
    monkeypatch.setattr(_kernels, "_CC", "dtwmedian-no-such-compiler")
    monkeypatch.setattr(_kernels, "_CACHE", str(tmp_path / "cache"))
    _kernels.library.cache_clear()
    with pytest.warns(UserWarning, match="dtwmedian-no-such-compiler") as warned:
        fallback = all_results(np.random.default_rng(SEED))
    assert len(warned) == 1
    assert _kernels.library() is None
    assert fallback == compiled


@needs_cc
def test_a_failed_build_names_the_compilers_last_line(fresh_library, monkeypatch, tmp_path):
    monkeypatch.setattr(_kernels, "_CFLAGS", (*_kernels._CFLAGS, "-fdtwmedian-no-such-flag"))
    monkeypatch.setattr(_kernels, "_CACHE", str(tmp_path / "cache"))
    with pytest.warns(UserWarning, match="dtwmedian-no-such-flag") as warned:
        assert _kernels.library() is None
    assert f"{_kernels._CC!r}" in str(warned[0].message)


@needs_cc
def test_a_build_removes_the_libraries_of_earlier_sources(fresh_library, monkeypatch, tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = ["_kernels-0123456789abcdef.so", "_closure-0123456789abcdef.so"]
    kept = ["_kernels.c", "other.so", "_kernels-notes.txt"]
    for name in stale + kept:
        (cache / name).write_bytes(b"")
    monkeypatch.setattr(_kernels, "_CACHE", str(cache))
    assert _kernels.library() is not None
    built = sorted(path.name for path in cache.glob("_kernels-*.so"))
    assert len(built) == 1 and built[0] not in stale
    assert sorted(path.name for path in cache.iterdir()) == sorted([*built, *kept])


@needs_cc
def test_the_dtw_lanes_have_the_reference_bits():
    assert _kernels.library() is not None
    assert_grids_have_the_reference_bits()


def test_the_grid_without_the_library_has_the_reference_bits(monkeypatch):
    monkeypatch.setattr(_kernels, "library", lambda: None)
    assert_grids_have_the_reference_bits()


@needs_cc
def test_the_self_matrix_has_the_reference_bits():
    assert _kernels.library() is not None
    assert_self_matrices_have_the_reference_bits()


@needs_cc
def test_the_medoid_lanes_have_the_reference_bits():
    assert _kernels.library() is not None
    assert_medoid_lanes_have_the_reference_bits()


def assert_the_search_has_the_reference_bits(inst, eps, seed):
    """The compiled search and the numpy rounds give the same centers, cost
    bits and assignment; returns the compiled solution."""
    compiled = kmedian_local_search(inst, eps, seed)
    with mock.patch.object(_kernels, "library", lambda: None):
        reference = kmedian_local_search(inst, eps, seed)
    assert compiled.centers == reference.centers
    assert compiled.cost.hex() == reference.cost.hex()
    assert compiled.assignment.tobytes() == reference.assignment.tobytes()
    return compiled


@needs_cc
@pytest.mark.parametrize(
    "n, k, duplicates, isolated",
    [(2, 1, 0, False), (7, 1, 3, True), (13, 12, 0, True), (30, 4, 10, True),
     (100, 70, 20, True), (203, 9, 0, False), (12, 5, 3, False), (15, 8, 0, True),
     (17, 9, 4, False), (14, 5, 0, True)],
)
def test_the_search_has_the_reference_bits(n, k, duplicates, isolated):
    """Any k (k = 70 and k = n - 1 among them, and k = 5 and 9, whose last
    vector of centers is padded), passes of candidates cut short (n - k = 1,
    7, 8 and 9 among them), exact duplicates, and inf distances and costs."""
    assert _kernels.library() is not None
    rng = np.random.default_rng(n * 100 + k)
    inst = metric_instance(rng, n, k, duplicates, isolated)
    for seed in range(3):
        for eps in (0.5, 0.05):
            assert_the_search_has_the_reference_bits(inst, eps, seed)


def line_instance(n, at, seed):
    """Unit weights on the line 0, 1, ..., n - 1 with k = 1, and the index of
    the farthest-point start for ``seed``, which sits at position ``at``."""
    start = kmedian._farthest_point_init(
        FiniteMetricInstance(np.zeros((n, n)), np.ones(n), 1), kmedian.new_rng(seed)
    )[0]
    position = (np.arange(n) - start + at) % n
    dist = np.abs(position[:, None] - position[None, :]).astype(float)
    return FiniteMetricInstance(dist, np.ones(n), 1), start


@needs_cc
def test_the_search_keeps_the_reference_ties_and_threshold():
    """The all-zero and two-group matrices, where swaps tie, and the first
    round's threshold test on lines: at 18 of 40 points the best swap saves
    2 of 402, so eps = 0.05 (threshold 0.99375) stops the search and
    eps = 0.03 takes the swap; at 11 of 31 it saves 16 of 256, exactly
    eps / 8 of the cost at eps = 0.5, and the swap is taken."""
    assert _kernels.library() is not None
    zeros = np.zeros((6, 6))
    two_groups = np.array(
        [[0.0, 0.0, 5.0, 5.0], [0.0, 0.0, 5.0, 5.0], [5.0, 5.0, 0.0, 0.0], [5.0, 5.0, 0.0, 0.0]]
    )
    for dist in (zeros, two_groups):
        for seed in range(6):
            inst = FiniteMetricInstance(dist, np.ones(len(dist)), 3)
            assert_the_search_has_the_reference_bits(inst, 0.5, seed)
    for n, at, eps, start_cost, cost in (
        (40, 18, 0.05, 402.0, 402.0), (40, 18, 0.03, 402.0, 400.0), (31, 11, 0.5, 256.0, 240.0)
    ):
        inst, start = line_instance(n, at, seed=3)
        assert kmedian.solution_for_centers(inst, [start]).cost == start_cost
        assert assert_the_search_has_the_reference_bits(inst, eps, 3).cost == cost


def c_functions(source):
    """The names of the non-static functions that a C source defines, an
    attribute line before one allowed."""
    pattern = r"^(?:__attribute__\(\(.*\)\)\s*)?(?!static\b)\w+[\s*]+(\w+)\("
    return set(re.findall(pattern, source, re.M))


def test_every_exported_function_has_a_signature():
    """A function without a signature would be called with ctypes' default
    int arguments, and a signature without a function fails the load."""
    source = Path(_kernels._SOURCE).read_text(encoding="utf-8")
    assert c_functions("__attribute__((x))\nvoid f(int a)\nstatic void g(void)\n") == {"f"}
    assert c_functions(source) == {"avx2_host", *_kernels._signatures(ctypes)}


@needs_cc
def test_mixed_lengths_reach_the_lanes_sorted_with_the_reference_bits(monkeypatch):
    """Self and cross matrices over curves of 1-12 points, duplicates among
    them, at d = 1, 2, 3 and every p in P_VALUES: dtw_grid gets the rows in
    a stable order of their lengths, so that rows of one length sit at
    consecutive positions of order and fill the lanes in groups. A self
    matrix is one call on one set with upper, a cross matrix one call
    without; every value has the bits of _grouped_pair_values and of
    dtw_value."""
    lib = _kernels.library()
    assert lib is not None
    calls = []

    def read(address, size):
        return np.array((ctypes.c_ssize_t * size).from_address(address))

    class Recording:
        def __getattr__(self, name):
            return getattr(lib, name)

        def dtw_grid(self, *args):
            points_a, lengths_a, order, na, points_b, nb, upper = (
                args[0], args[2], args[3], args[4], args[5], args[8], args[10]
            )
            calls.append((read(lengths_a, na), read(order, na), upper, points_a == points_b, nb))
            lib.dtw_grid(*args)

    monkeypatch.setattr(_kernels, "library", Recording)
    for d in (1, 2, 3):
        rng = np.random.default_rng(SEED + d)
        lengths = rng.integers(1, 13, 30)
        curves = [Curve(f"c{i}", rng.normal(0, 3, (m, d))) for i, m in enumerate(lengths)]
        curves += [Curve("dup0", curves[0].points), Curve("dup5", curves[5].points)]
        n = len(curves)
        for p in P_VALUES:
            calls.clear()
            full = dtw_self_matrix(curves, p)
            cross = dtw_matrix(curves[:7], curves[7:], p)
            assert [(upper, same, nb) for *_, upper, same, nb in calls] == [
                (True, True, n), (False, False, n - 7)
            ]
            for length, order, *_ in calls:
                assert sorted(order) == list(range(len(order)))
                # a stable sort: each length at consecutive positions, in index order
                assert order.tolist() == sorted(order, key=lambda i: (length[i], i))
                assert len(set(length)) > 1
            rows, cols = np.divmod(np.arange(n * n), n)
            store = CurveSet(curves)
            grouped = dtw_module._grouped_pair_values(store, store, rows, cols, p).reshape(n, n)
            one_by_one = np.array([[dtw_value(a, b, p) for b in curves] for a in curves])
            for reference in (grouped, one_by_one):
                assert full.tobytes() == reference.tobytes()
                assert cross.tobytes() == np.ascontiguousarray(reference[:7, 7:]).tobytes()


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "reference"])
def test_a_cross_matrix_reads_two_sets_with_the_bits_of_one_store(monkeypatch, compiled):
    """dtw_matrix(A, B) reads each set in its own buffer, B a selection with
    repeats; curves of 1-9 points, one scaled by 1e10, at d = 1 and 3 and
    every p in P_VALUES. Each value has the bits of its pair packed into one
    store with the other, and the repeats of B give equal columns."""
    if not compiled:
        monkeypatch.setattr(_kernels, "library", lambda: None)
    for d in (1, 3):
        rng = np.random.default_rng(SEED + d)
        def curves(prefix, count):
            lengths = rng.integers(1, 10, count)
            return [Curve(f"{prefix}{i}", rng.normal(0, 3, (m, d))) for i, m in enumerate(lengths)]

        rows_of = curves("a", 11)
        rows_of[4] = Curve("big", 1e10 * rows_of[4].points)
        a, pool = CurveSet(rows_of), CurveSet(curves("b", 7))
        chosen = np.array([3, 0, 3, 6, 1, 1, 5, 2, 3, 4, 0, 6, 2])
        b = pool.take(chosen)
        assert not np.shares_memory(a.points, b.points) and b.points is pool.points
        one = CurveSet([*a, *b])
        for p in P_VALUES:
            cross = dtw_matrix(a, b, p)
            packed = np.ascontiguousarray(dtw_matrix(one, one, p)[: len(a), len(a) :])
            assert cross.tobytes() == packed.tobytes()
            assert cross.tobytes() == dtw_matrix(list(a), list(b), p).tobytes()
            for j, c in enumerate(chosen):
                first = int(np.flatnonzero(chosen == c)[0])
                assert cross[:, j].tobytes() == cross[:, first].tobytes()


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "reference"])
def test_p_below_one_and_mixed_dimensions_raise(rng, monkeypatch, compiled):
    if not compiled:
        monkeypatch.setattr(_kernels, "library", lambda: None)
    curves = [Curve(f"c{i}", rng.normal(0, 1, (5, 2))) for i in range(3)]
    flat = Curve("flat", rng.normal(0, 1, (5, 1)))
    for p in (0.5, float("nan")):
        with pytest.raises(ValidationError):
            dtw_self_matrix(curves, p)
        # no pairs to evaluate
        with pytest.raises(ValidationError):
            dtw_self_matrix(curves[:1], p)
        with pytest.raises(ValidationError):
            dtw_matrix([], curves[:1], p)
        with pytest.raises(ValidationError):
            dtw_aligned(curves, curves[::-1], p)
        for method in ("two-approx", "vertex"):
            with pytest.raises(ValidationError):
                simplify_set(curves, 2, p, method)
    with pytest.raises(ValidationError):
        dtw_matrix(curves, [flat], 1.0)
    with pytest.raises(ValidationError):
        dtw_self_matrix([*curves, flat], 1.0)
    with pytest.raises(ValidationError):
        dtw_matrix([], [curves[0], flat], 1.0)


def test_every_c_source_is_package_data():
    tomllib = pytest.importorskip("tomllib")
    root = Path(dtwmedian.__file__).parent
    pyproject = tomllib.loads((root.parents[1] / "pyproject.toml").read_text(encoding="utf-8"))
    listed = set(pyproject["tool"]["setuptools"]["package-data"]["dtwmedian"])
    sources = {str(path.relative_to(root)) for path in root.rglob("*.c")}
    assert sources and sources <= listed


@needs_cc
def test_the_c_source_compiles_without_warnings(tmp_path):
    out = tmp_path / "kernels.so"
    command = [_kernels._CC, *_kernels._CFLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(out)]
    built = subprocess.run(
        [*command, _kernels._SOURCE], capture_output=True, text=True, timeout=300
    )
    assert built.returncode == 0, built.stderr
    assert out.is_file()


@needs_cc
def test_a_host_without_avx2_runs_the_references(fresh_library, monkeypatch, tmp_path):
    """The library computes on 4-lane AVX2 vectors only. Built with its one
    AVX2 check replaced by 0, as a host without AVX2 answers it, the library
    is not used: library() is None after one warning that names AVX2, and
    every caller runs its numpy reference, with the compiled results' bits."""
    assert _kernels.library() is not None
    compiled = all_results(np.random.default_rng(SEED))
    check = '__builtin_cpu_supports("avx2")'
    source = Path(_kernels._SOURCE).read_text(encoding="utf-8")
    assert source.count(check) == 1
    (tmp_path / "kernels.c").write_text(source.replace(check, "0"), encoding="utf-8")
    monkeypatch.setattr(_kernels, "_SOURCE", str(tmp_path / "kernels.c"))
    monkeypatch.setattr(_kernels, "_CACHE", str(tmp_path / "cache"))
    _kernels.library.cache_clear()
    with pytest.warns(UserWarning, match="AVX2") as warned:
        fallback = all_results(np.random.default_rng(SEED))
    assert len(warned) == 1
    assert _kernels.library() is None
    assert fallback == compiled


@needs_cc
def test_a_short_run_writes_only_its_own_pairs():
    """dtw_grid fills the lanes of a group of fewer than four rows with
    copies of its last row. Called directly on 1, 2, 3 and 5 rows of one
    length against 3 columns, with four NaN sentinels on each side of its
    output, it leaves them as they were, and each value has the bits of
    _grouped_pair_values, at p = 1, 2 and 64; the last row is scaled by
    1e10, so at p = 64 the lanes of its group take different scales. With
    upper, on the rows alone, it writes the diagonal and the upper triangle
    and leaves the lower triangle's NaN as it was."""
    lib = _kernels.library()
    assert lib is not None
    rng = np.random.default_rng(SEED)
    columns = CurveSet([Curve(f"b{j}", rng.normal(0, 3, (4, 2))) for j in range(3)])

    def grid(a, b, upper, p, out):
        order = np.argsort(a.lengths, kind="stable")
        work = np.empty(4 * (2 * int(b.lengths.max()) + 1 + int(a.lengths.max()) * 2))
        lib.dtw_grid(
            a.points.ctypes.data, a.offsets.ctypes.data, a.lengths.ctypes.data,
            order.ctypes.data, len(a), b.points.ctypes.data, b.offsets.ctypes.data,
            b.lengths.ctypes.data, len(b), 2, upper, p, out.ctypes.data, work.ctypes.data,
        )

    for count in (1, 2, 3, 5):
        curves = [Curve(f"a{i}", rng.normal(0, 3, (6, 2))) for i in range(count)]
        curves[-1] = Curve("big", 1e10 * curves[-1].points)
        a = CurveSet(curves)
        for p in (1.0, 2.0, 64.0):
            for b, upper in ((columns, 0), (a, 1)):
                buffer = np.full(count * len(b) + 8, np.nan)
                grid(a, b, upper, p, buffer[4:-4])
                assert np.isnan(buffer[:4]).all() and np.isnan(buffer[-4:]).all()
                out = buffer[4:-4].reshape(count, len(b))
                rows, cols = np.divmod(np.arange(out.size), len(b))
                reference = dtw_module._grouped_pair_values(a, b, rows, cols, p)
                reference = reference.reshape(out.shape)
                if upper:
                    assert np.isnan(out[np.tril_indices(count, k=-1)]).all()
                    assert (np.diag(out) == 0.0).all()
                    out, reference = np.triu(out), np.triu(reference)
                assert out.tobytes() == reference.tobytes()
