"""The compiled library against its numpy references: the DTW pair loop and
its lanes, the medoid simplification and the k-median swap costs run
compiled when a compiler exists, and a host without one gets the same bits
from the references."""

import ctypes
import itertools
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import dtwmedian
from dtwmedian import _kernels, closure, kmedian, simplify
from dtwmedian.curves import Curve, ValidationError, gen_synthetic
from dtwmedian.dtw import dtw_aligned, dtw_matrix, dtw_self_matrix, dtw_value
from dtwmedian.kmedian import FiniteMetricInstance, kmedian_local_search
from dtwmedian.simplify import (
    simplify_2approx_detailed,
    simplify_set,
    simplify_vertex_restricted_detailed,
)
from conftest import needs_cc

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


def lane_batches(rng, d):
    """Curves and pair lists for the lanes of dtw_pairs: for each count from
    1 to 9 a batch of that many pairs of one shape, so that every tail length
    occurs, and last all the batches in one list, where each run of one shape
    is cut off by a pair of another, so that a run breaks at every lane
    position. Two successive runs share one of their two lengths. From two
    pairs on, each batch has a 1e10-scaled curve in a run beside unit-scale
    ones, so the lanes of one run take different scales at p = 64."""
    shapes = ((5, 3), (5, 4), (1, 4), (1, 1), (5, 1))
    curves = []

    def curve(m, scale=1.0):
        curves.append(Curve(f"c{len(curves)}", scale * rng.normal(0, 3, (m, d))))
        return len(curves) - 1

    batches = []
    for count in range(1, 10):
        m, l = shapes[count % len(shapes)]
        big = count // 2
        batches.append([(curve(m, 1e10 if x == big else 1.0), curve(l)) for x in range(count)])
    batches.append([pair for batch in batches for pair in batch])
    return [(curves, *np.array(batch).T) for batch in batches]


def assert_lanes_have_the_reference_bits():
    """Every lane batch, at d = 1, 2, 3 and every p in P_VALUES, gives the
    bits of _grouped_pair_values and of one dtw_value call per pair."""
    for d in (1, 2, 3):
        for curves, rows, cols in lane_batches(np.random.default_rng(SEED + d), d):
            for p in P_VALUES:
                values = dtw_module._pair_values(curves, rows, cols, p)
                reference = dtw_module._grouped_pair_values(curves, rows, cols, p)
                one_by_one = [dtw_value(curves[r], curves[c], p) for r, c in zip(rows, cols)]
                assert values.tobytes() == reference.tobytes()
                assert values.tobytes() == np.array(one_by_one).tobytes()


def medoid_batches(rng, d):
    """Batches of curves of one complexity for the lanes of
    medoid_partition: for each count from 1 to 9, one of normal curves and
    one of integer-grid curves, so that every padded last group occurs for
    4 and 2 lanes. In the normal batches one curve is scaled by 1e10, so
    that from two curves on the lanes of one group take different scales at
    p = 64; in the grid batches many vertices tie for a medoid and many
    splits tie."""
    batches = []
    for count in range(1, 10):
        m = 6 + count % 3
        normal = rng.normal(0, 3, (count, m, d))
        normal[count // 2] *= 1e10
        batches += [normal, rng.integers(0, 3, (count, m, d)).astype(float)]
    return batches


def assert_medoid_lanes_have_the_reference_bits():
    """Every medoid batch, at d = 1, 2, 3, every p in P_VALUES, ell = 1, 3, 5
    and with and without restrict_to_range, gives the parts, centers and
    costs of the numpy reference and of one one-curve call per curve."""
    one_curve = {True: simplify_2approx_detailed, False: simplify_vertex_restricted_detailed}
    for d in (1, 2, 3):
        for pts in medoid_batches(np.random.default_rng(SEED + d), d):
            for p, ell, restrict_to_range in itertools.product(P_VALUES, (1, 3, 5), (True, False)):
                args = (pts, ell, p, restrict_to_range)
                parts, centers, costs = simplify._medoid_partitions(*args)
                with mock.patch.object(_kernels, "library", lambda: None):
                    reference = simplify._medoid_partitions(*args)
                assert (parts, centers) == reference[:2]
                assert costs.tobytes() == reference[2].tobytes()
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
                parts, centers, costs = simplify._medoid_partitions(grid, ell, p, restrict_to_range)
                out.append((parts, centers, np.asarray(costs).tobytes()))
            out.append(dtw_self_matrix(curves, p).tobytes())
            out.append(dtw_matrix(curves[:5], curves, p).tobytes())
            out.append(dtw_aligned(curves, curves[::-1], p).tobytes())
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
        (simplify, "_partition"),
        (kmedian, "_swap_costs_reference"),
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
    assert_lanes_have_the_reference_bits()


@needs_cc
def test_the_medoid_lanes_have_the_reference_bits():
    assert _kernels.library() is not None
    assert_medoid_lanes_have_the_reference_bits()


@needs_cc
@pytest.mark.parametrize(
    "n, k, duplicates, isolated",
    [(2, 1, 0, False), (7, 1, 3, True), (13, 12, 0, True), (30, 4, 10, True),
     (100, 70, 20, True), (203, 9, 0, False)],
)
def test_swap_costs_have_the_reference_bits(n, k, duplicates, isolated):
    """Any k (k = 70 and k = n - 1 among them), blocks of candidates cut
    short, exact duplicates, and inf distances and costs."""
    assert _kernels.library() is not None
    rng = np.random.default_rng(n * 100 + k)
    inst = metric_instance(rng, n, k, duplicates, isolated)
    infinite = False
    for _ in range(3):
        cand, base = kmedian._swap_arguments(inst, sorted(rng.choice(n, k, replace=False)))
        compiled = kmedian._swap_costs(inst, cand, base)
        reference = kmedian._swap_costs_reference(inst.dist, inst.weights, cand, base)
        assert compiled.shape == (k, n - k)
        assert compiled.tobytes() == reference.tobytes()
        infinite |= bool(np.isinf(compiled).any())
    assert infinite == isolated


@needs_cc
def test_mixed_lengths_reach_the_lanes_sorted_with_the_reference_bits(monkeypatch):
    """Self and cross matrices over curves of 1-12 points, duplicates among
    them, at d = 1, 2, 3 and every p in P_VALUES: the pairs reach dtw_pairs
    sorted by shape (m, l), so that runs of one shape fill the lanes, and
    every value has the bits of _grouped_pair_values and of dtw_value."""
    lib = _kernels.library()
    assert lib is not None
    shapes = []

    class Recording:
        def __getattr__(self, name):
            return getattr(lib, name)

        def dtw_pairs(self, points, offsets, lengths, d, rows, cols, pairs, *rest):
            def read(address, size):
                return np.array((ctypes.c_ssize_t * size).from_address(address))

            r, c = read(rows, pairs), read(cols, pairs)
            length = read(lengths, int(max(r.max(), c.max())) + 1)
            shapes.append(list(zip(length[r], length[c])))
            lib.dtw_pairs(points, offsets, lengths, d, rows, cols, pairs, *rest)

    monkeypatch.setattr(_kernels, "library", Recording)
    for d in (1, 2, 3):
        rng = np.random.default_rng(SEED + d)
        lengths = rng.integers(1, 13, 30)
        curves = [Curve(f"c{i}", rng.normal(0, 3, (m, d))) for i, m in enumerate(lengths)]
        curves += [Curve("dup0", curves[0].points), Curve("dup5", curves[5].points)]
        n = len(curves)
        for p in P_VALUES:
            shapes.clear()
            full = dtw_self_matrix(curves, p)
            cross = dtw_matrix(curves[:7], curves[7:], p)
            assert len(shapes) == 2 and all(s == sorted(s) and len(set(s)) > 1 for s in shapes)
            rows, cols = np.divmod(np.arange(n * n), n)
            grouped = dtw_module._grouped_pair_values(curves, rows, cols, p).reshape(n, n)
            one_by_one = np.array([[dtw_value(a, b, p) for b in curves] for a in curves])
            for reference in (grouped, one_by_one):
                assert full.tobytes() == reference.tobytes()
                assert cross.tobytes() == np.ascontiguousarray(reference[:7, 7:]).tobytes()


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


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "reference"])
def test_a_pair_index_out_of_range_raises(rng, monkeypatch, compiled):
    if not compiled:
        monkeypatch.setattr(_kernels, "library", lambda: None)
    curves = [Curve(f"c{i}", rng.normal(0, 1, (5, 2))) for i in range(3)]
    for rows, cols in (([-1], [0]), ([0], [-3]), ([3], [0]), ([0, 1], [1, 3])):
        with pytest.raises(IndexError):
            dtw_module._pair_values(curves, rows, cols, 1.0)


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
def test_the_sse2_paths_have_the_reference_bits(fresh_library, monkeypatch, tmp_path):
    """On an AVX2 host the library runs the closure's 4-lane tile pass and
    4-lane DTW; this builds the source with every AVX2 check replaced by 0,
    so the 2-lane paths that other x86-64 hosts run are checked too."""
    check = '__builtin_cpu_supports("avx2")'
    source = Path(_kernels._SOURCE).read_text(encoding="utf-8")
    assert source.count(check) == 3
    (tmp_path / "kernels.c").write_text(source.replace(check, "0"), encoding="utf-8")
    monkeypatch.setattr(_kernels, "_SOURCE", str(tmp_path / "kernels.c"))
    monkeypatch.setattr(_kernels, "_CACHE", str(tmp_path / "cache"))
    lib = _kernels.library()
    assert lib is not None
    assert_lanes_have_the_reference_bits()
    assert_medoid_lanes_have_the_reference_bits()
    rng = np.random.default_rng(SEED)
    block = closure._BLOCK
    walks = simplify_set(gen_synthetic(150, 1, 32, 2, 0.5, seed=SEED), 4, 1.0)
    bases = [dtw_self_matrix(walks, 1.0)]
    # n below one tile of 6 rows, every n mod 6, tails of 0-3 columns after
    # a tile's last stretch of 4, and blocks cut short
    for n in (*range(1, block + 2), 2 * block + 1, 67):
        w = rng.uniform(0.0, 4.0, (n, n))
        w[rng.random((n, n)) < 1 / 3] = np.inf
        bases.append(w)
    # nodes 4 to 8 cut off from the others: an inf block across a tile edge
    cut = np.zeros(67, dtype=bool)
    cut[4:9] = True
    w = bases[-1].copy()
    w[np.ix_(cut, ~cut)] = w[np.ix_(~cut, cut)] = np.inf
    bases.append(w)
    for w in bases:
        dist = np.minimum(w, w.T, order="C")
        np.fill_diagonal(dist, 0.0)
        reference = closure.floyd_warshall_reference(dist)
        rows = np.empty((block, len(dist)))
        lib.floyd_warshall(dist.ctypes.data, len(dist), rows.ctypes.data, block)
        assert dist.tobytes() == reference.tobytes()
