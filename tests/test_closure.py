import importlib
import warnings

import numpy as np
import pytest
from scipy.sparse.csgraph import csgraph_from_dense, dijkstra, floyd_warshall

from dtwmedian import _kernels, closure
from dtwmedian.curves import Curve, CurveSet, ResourceGuardError, ValidationError, gen_synthetic
from dtwmedian.closure import (
    build_closure,
    distances_from_set,
    floyd_warshall_reference,
    shortest_path_closure,
)
from dtwmedian.dtw import dtw_brute, dtw_self_matrix, dtw_value
from dtwmedian.simplify import simplify_set
from conftest import curve1d, needs_cc

TOL = 1e-9
# the package attribute dtwmedian.dtw is the function
dtw_module = importlib.import_module("dtwmedian.dtw")


def random_set(rng, n, m_hi=5, d=2, scale=3.0):
    return [
        Curve(f"c{i}", rng.normal(0, scale, (int(rng.integers(1, m_hi)), d)))
        for i in range(n)
    ]


def test_single_curve():
    mc = build_closure([curve1d(0, 1)], 1.0)
    assert mc.dist.shape == (1, 1) and mc.dist[0, 0] == 0.0
    # no pair to evaluate, and p is still checked
    with pytest.raises(ValidationError):
        build_closure([curve1d(0, 1)], 0.5)


def test_two_curves_dist_equals_base():
    curves = [curve1d(0), curve1d(5)]
    mc = build_closure(curves, 1.0)
    assert np.array_equal(mc.dist, dtw_self_matrix(curves, 1.0))
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
    base = dtw_self_matrix([s, x, t], 1.0)
    assert mc.dist[0, 2] < base[0, 2] - 1.0
    assert mc.dist[0, 2] == pytest.approx(base[0, 1] + base[1, 2], abs=TOL)


def test_invariants_random(rng):
    for _ in range(15):
        curves = random_set(rng, int(rng.integers(2, 12)))
        m = max(c.complexity for c in curves)
        p = float(rng.choice([1.0, 2.0]))
        mc = build_closure(curves, p)
        base = dtw_self_matrix(curves, p)
        n = len(curves)
        assert np.allclose(np.diag(mc.dist), 0.0)
        assert np.array_equal(mc.dist, mc.dist.T)
        assert np.all(mc.dist <= base + TOL)
        # sandwich constants: dtw <= (2m)^(1/p) * closure <= (2m)^(1/p) * dtw
        zeta = (2 * m) ** (1.0 / p)
        assert np.all(base <= zeta * mc.dist + TOL)
        # closure satisfies the triangle inequality
        for i in range(n):
            assert np.all(
                mc.dist <= mc.dist[:, i : i + 1] + mc.dist[i : i + 1, :] + TOL
            )


def _scipy_closure(w):
    return floyd_warshall(csgraph_from_dense(w, null_value=np.inf), directed=False)


def _weights_with_duplicates(rng, n):
    w = rng.uniform(0.0, 4.0, (n, n))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    # rows n-2 and n-1 duplicate rows 0 and 1: zero-weight edges
    for dup, src in ((n - 2, 0), (n - 1, 1)):
        w[dup, :] = w[src, :]
        w[:, dup] = w[:, src]
        w[dup, src] = w[src, dup] = w[dup, dup] = 0.0
    return w


def _check_closure(w):
    dist = shortest_path_closure(w)
    assert np.array_equal(dist, floyd_warshall_reference(w))
    assert np.array_equal(dist, _scipy_closure(w))
    assert np.array_equal(dist, dist.T)
    return dist


def test_closure_matches_floyd_warshall_reference(rng, monkeypatch):
    """Equal bits to the reference and to scipy, on the compiled kernel and
    with the reference fallback forced."""
    with_duplicates = [_weights_with_duplicates(rng, n) for n in (5, 20, 50)]
    # two components and one isolated node
    split = _weights_with_duplicates(rng, 13)
    split[:6, 6:] = split[6:, :6] = np.inf
    split[12, :12] = split[:12, 12] = np.inf
    walks = simplify_set(gen_synthetic(200, 1, 32, 2, 0.5, seed=3), 16, 2.0)
    base = dtw_self_matrix(walks, 2.0)
    off = ~np.eye(len(walks), dtype=bool)
    for fallback in (False, True):
        with monkeypatch.context() as patch:
            if fallback:
                patch.setattr(_kernels, "library", lambda: None)
            assert _check_closure(np.zeros((1, 1))).tolist() == [[0.0]]
            for w in with_duplicates:
                dist = _check_closure(w)
                assert dist[0, -2] == 0.0 and dist[1, -1] == 0.0
            # disconnected pairs stay inf
            dist = _check_closure(split)
            assert np.all(np.isinf(dist[:6, 6:])) and np.all(np.isinf(dist[12, :12]))
            assert np.all(np.isfinite(dist[:6, :6])) and np.all(np.isfinite(dist[6:12, 6:12]))
            # about half the entries of a p-DTW base of simplified walks shrink
            dist = _check_closure(base)
            assert 0.4 < np.mean(dist[off] < base[off]) < 0.7


@needs_cc
def test_closure_runs_the_compiled_kernel(rng, monkeypatch):
    def no_fallback(*args, **kwargs):
        raise AssertionError("the closure fell back to the reference")

    monkeypatch.setattr(closure, "floyd_warshall_reference", no_fallback)
    assert _kernels.library() is not None
    w = _weights_with_duplicates(rng, 30)
    assert np.array_equal(shortest_path_closure(w), floyd_warshall_reference(w))


def _symmetric_graph(rng, n):
    """Symmetric weights of n nodes: zero edges between duplicates, an inf
    block between the first and the second half, and an isolated last
    node, each where n leaves room for it; a third of the other edges are
    missing (inf), so shortest paths run through many nodes."""
    w = rng.uniform(0.0, 4.0, (n, n))
    w[rng.random((n, n)) < 1 / 3] = np.inf
    w = np.minimum(w, w.T)
    np.fill_diagonal(w, 0.0)
    if n >= 7:
        half = (n - 1) // 2
        w[:half, half : n - 2] = w[half : n - 2, :half] = np.inf
    if n >= 3:
        w[n - 2] = w[0]
        w[:, n - 2] = w[:, 0]
        w[0, n - 2] = w[n - 2, 0] = w[n - 2, n - 2] = 0.0
    if n >= 2:
        w[n - 1, : n - 1] = w[: n - 1, n - 1] = np.inf
    return w


B = closure._BLOCK
# the rows of one tile of the compiled pass (TILE in _kernels.c)
TILE = 6


@needs_cc
@pytest.mark.parametrize("n", [*range(1, B + 2), 2 * B + 1, 64, 257])
def test_triangular_kernel_matches_the_reference(n):
    """The compiled kernel relaxes one triangle, in blocks of B steps and
    tiles of TILE rows, and mirrors it; n below one tile (1-5), every
    n mod TILE, a first tile with no stretch of columns and 0-7 entries
    after it (n = 6-13) or with one (n = 14-17), every tail after the last
    stretch of 8 columns among the tiles of n = 64 and 257, a last
    block of 1, B - 1 or B steps, and an inf block across a tile edge give
    the reference's bits."""
    assert _kernels.library() is not None
    w = _symmetric_graph(np.random.default_rng(n), n)
    dist = shortest_path_closure(w)
    assert np.array_equal(dist, floyd_warshall_reference(w))
    assert np.array_equal(dist, dist.T)
    if n > TILE + 2:
        # nodes TILE - 2 to TILE + 2 cut off from the others
        cut = np.zeros(n, dtype=bool)
        cut[TILE - 2 : TILE + 3] = True
        wc = w.copy()
        wc[np.ix_(cut, ~cut)] = wc[np.ix_(~cut, cut)] = np.inf
        apart = shortest_path_closure(wc)
        assert np.array_equal(apart, floyd_warshall_reference(wc))
        assert np.all(np.isinf(apart[np.ix_(cut, ~cut)]))
    if n >= 7:
        # the halves stay apart, the duplicate at zero, the last node alone
        assert np.all(np.isinf(dist[0, n // 2 : n - 2]))
        assert dist[0, n - 2] == 0.0 and np.all(np.isinf(dist[n - 1, : n - 1]))
    if n >= 64:
        # paths through other nodes shortened edges and joined missing ones
        off = ~np.eye(n, dtype=bool)
        assert np.any(dist[off] < w[off]) and np.any(np.isfinite(dist) & np.isinf(w))


@needs_cc
def test_an_inf_block_across_a_block_edge():
    """Nodes B - 3 to B + 2 are cut off from the others, so the inf block
    spans the edge between the first two blocks of steps."""
    n = 2 * B + 1
    w = _weights_with_duplicates(np.random.default_rng(0), n)
    cut = np.zeros(n, dtype=bool)
    cut[B - 3 : B + 3] = True
    w[np.ix_(cut, ~cut)] = w[np.ix_(~cut, cut)] = np.inf
    dist = shortest_path_closure(w)
    assert np.array_equal(dist, floyd_warshall_reference(w))
    assert np.all(np.isinf(dist[np.ix_(cut, ~cut)]))
    assert np.all(np.isfinite(dist[np.ix_(cut, cut)]))


def _textbook_blocked(w, b):
    """The textbook blocked Floyd-Warshall (Venkataraman, Sahni and
    Mukhopadhyaya, JEA 2003) in blocks of b steps: the diagonal block, then
    its rows and columns, then the rest from those rows and columns as they
    stand after the whole block."""
    d = np.array(w, dtype=np.float64)
    n = len(d)
    for k0 in range(0, n, b):
        K = np.arange(k0, min(k0 + b, n))
        rest = np.r_[0:k0, K[-1] + 1 : n]
        for k in K:
            d[np.ix_(K, K)] = np.minimum(d[np.ix_(K, K)], d[K, k][:, None] + d[k, K])
        for k in K:
            d[np.ix_(K, rest)] = np.minimum(d[np.ix_(K, rest)], d[K, k][:, None] + d[k, rest])
            d[np.ix_(rest, K)] = np.minimum(d[np.ix_(rest, K)], d[rest, k][:, None] + d[k, K])
        inner = d[np.ix_(rest, rest)]
        for k in K:
            inner = np.minimum(inner, d[rest, k][:, None] + d[k, rest])
        d[np.ix_(rest, rest)] = inner
    return d


def test_the_blocked_kernel_keeps_the_bits_the_textbook_order_changes():
    """A canary: on this p-DTW base the textbook blocked order changes
    entries of the reference's closure (36 of them at B = 16), so the base
    tells the kernel's order from the textbook one."""
    walks = simplify_set(gen_synthetic(300, 1, 32, 2, 0.5, seed=1), 4, 1.0)
    base = dtw_self_matrix(walks, 1.0)
    reference = floyd_warshall_reference(base)
    assert np.any(_textbook_blocked(base, B) != reference)
    assert np.array_equal(shortest_path_closure(base), reference)


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "reference"])
def test_closure_rejects_nan_and_negative_entries(rng, monkeypatch, compiled):
    if not compiled:
        monkeypatch.setattr(_kernels, "library", lambda: None)
    w = _weights_with_duplicates(rng, 6)
    for bad in (np.nan, -0.5, -np.inf):
        one = w.copy()
        one[1, 3] = bad
        with pytest.raises(ValidationError):
            shortest_path_closure(one)


def test_signed_zero_edges_give_the_same_bits_on_both_paths(rng, monkeypatch):
    """-0.0 and +0.0 compare equal, and which one a tie keeps depends on
    the order; the closure makes every -0.0 entry +0.0 first."""
    w = rng.choice([0.0, -0.0, 1.0, 2.0, np.inf], size=(11, 11))
    w = np.minimum(w, w.T)
    compiled = shortest_path_closure(w)
    with monkeypatch.context() as patch:
        patch.setattr(_kernels, "library", lambda: None)
        reference = shortest_path_closure(w)
    assert compiled.tobytes() == reference.tobytes()
    assert not np.any(np.signbit(compiled))


def test_failed_build_falls_back_with_the_same_bits(rng, fresh_library, monkeypatch, tmp_path):
    monkeypatch.setattr(_kernels, "_CC", "dtwmedian-no-such-compiler")
    monkeypatch.setattr(_kernels, "_CACHE", str(tmp_path / "cache"))
    w = _weights_with_duplicates(rng, 30)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        dist = shortest_path_closure(w)
    # the failed build's own warning, and no numpy warning from the fallback
    assert [(c.category, "dtwmedian-no-such-compiler" in str(c.message)) for c in caught] == [
        (UserWarning, True)
    ]
    assert _kernels.library() is None
    assert np.array_equal(dist, floyd_warshall_reference(w))
    assert np.array_equal(dist, _scipy_closure(w))


@needs_cc
def test_unwritable_cache_builds_in_a_private_directory(rng, fresh_library, monkeypatch, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(_kernels, "_CACHE", str(blocker / "cache"))
    assert _kernels.library() is not None
    w = _weights_with_duplicates(rng, 30)
    assert np.array_equal(shortest_path_closure(w), floyd_warshall_reference(w))


def test_closure_rejects_a_non_square_base():
    with pytest.raises(ValidationError):
        shortest_path_closure(np.zeros((3, 1)))


def test_zero_weight_edges_are_kept():
    # duplicate curves give 0-weight edges that must shortcut paths
    a = curve1d(0, cid="a")
    b = curve1d(0, cid="b")  # duplicate of a
    c = curve1d(7, cid="c")
    mc = build_closure([a, b, c], 1.0)
    assert mc.dist[0, 1] == 0.0
    assert mc.dist[0, 2] == pytest.approx(7.0)


def _scipy_distances(base, C):
    graph = csgraph_from_dense(base, null_value=np.inf)
    return dijkstra(graph, directed=True, indices=C, min_only=True)


def test_distances_from_set_examples(rng):
    curves = random_set(rng, 6)
    mc = build_closure(curves, 1.0)
    mc_base = dtw_self_matrix(curves, 1.0)
    # C = everything -> all zeros
    assert np.allclose(distances_from_set(mc_base, range(6)), 0.0)
    # n = 2, C = {i}: the other curve sits at base distance
    two = dtw_self_matrix(curves[:2], 1.0)
    assert distances_from_set(two, [0])[1] == pytest.approx(two[0, 1])
    # |C| = 2 cross-check against the column minimum of the full closure
    d = distances_from_set(mc_base, [1, 4])
    assert np.max(np.abs(d - mc.dist[[1, 4]].min(axis=0))) <= TOL

    # equal bits to scipy's multi-source Dijkstra
    walks = simplify_set(gen_synthetic(60, 1, 16, 2, 0.5, seed=5), 6, 2.0)
    # the last ten curves repeat the first ten: duplicate rows, zero edges
    base = dtw_self_matrix(walks.take(np.r_[0:60, 0:10]), 2.0)
    # an asymmetric base whose last four points no source reaches
    split = rng.uniform(0.0, 4.0, (12, 12))
    split[:8, 8:] = np.inf
    cases = [
        (np.zeros((1, 1)), [0]),
        (mc_base, [1, 4]),
        (base, [3]),
        (base, [0, 17, 65]),
        (base, range(70)),
        (split, [0, 5]),
    ]
    for w, C in cases:
        d = distances_from_set(w, C)
        assert np.array_equal(d, _scipy_distances(w, list(C)))
    assert np.all(d[8:] == np.inf) and np.all(np.isfinite(d[:8]))
    assert np.all(distances_from_set(base, range(70)) == 0.0)
    # a duplicate of a source is at distance zero
    assert distances_from_set(base, [3])[63] == 0.0


def test_distances_from_set_on_a_chain_of_n_minus_one_hops():
    """The worst case of the passes: on a chain whose direct edges cost more
    than the hops between, the shortest path from one end to point v takes v
    hops, so the passes run n - 1 times, and the bits are scipy's; with
    sources at both ends, the paths meet in the middle."""
    n = 60
    hops = np.abs(np.subtract.outer(np.arange(n), np.arange(n))).astype(float)
    base = hops**2 * 0.1 + np.random.default_rng(7).uniform(0.0, 1e-3, (n, n))
    for C in ([0], [n - 1], [0, n - 1]):
        assert np.array_equal(distances_from_set(base, C), _scipy_distances(base, C))
    # from 0, each point past the first is nearer through the chain than directly
    d = distances_from_set(base, [0])
    assert np.all(d[2:] < base[0, 2:]) and np.all(np.diff(d) > 0)


def test_distances_from_set_single_point():
    assert distances_from_set(np.zeros((1, 1)), [0]).tolist() == [0.0]


def test_distances_from_set_validation(rng):
    base = dtw_self_matrix(random_set(rng, 3), 1.0)
    with pytest.raises(ValidationError):
        distances_from_set(base, [])
    with pytest.raises(ValidationError):
        distances_from_set(base, [5])
    # a negative edge gave [0, -2, -5], a NaN edge NaN everywhere
    negative = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, -3.0], [1.0, -3.0, 0.0]])
    nan = base.copy()
    nan[0, 2] = nan[2, 0] = np.nan
    for base in (negative, nan):
        with pytest.raises(ValidationError):
            distances_from_set(base, [0])


def test_subset_monotonicity(rng):
    for _ in range(10):
        curves = random_set(rng, 8)
        sub = sorted(rng.choice(8, size=4, replace=False))
        mc_full = build_closure(curves, 1.0)
        mc_sub = build_closure([curves[i] for i in sub], 1.0)
        restricted = mc_full.dist[np.ix_(sub, sub)]
        # closure-on-X restricted to Y <= closure-on-Y <= base on Y
        assert np.all(restricted <= mc_sub.dist + TOL)
        assert np.all(mc_sub.dist <= dtw_self_matrix(curves, 1.0)[np.ix_(sub, sub)] + TOL)


def test_size_guard():
    curves = [curve1d(i, cid=f"c{i}") for i in range(5)]
    with pytest.raises(ResourceGuardError):
        build_closure(curves, 1.0, size_cap=4)
    with pytest.raises(ValidationError):
        build_closure([], 1.0)


def test_base_matrix_matches_scalar_dtw(rng):
    curves = random_set(rng, 6)
    base = dtw_self_matrix(curves, 2.0)
    for i in range(6):
        for j in range(6):
            assert base[i, j] == pytest.approx(
                dtw_value(curves[i], curves[j], 2.0), abs=1e-10
            )


def _fused_case(n, d):
    """n curves of d coordinates and an index list over them: the lengths
    hold classes of one, two and three curves (padded lane groups) beside
    classes of four and more, one sequence is under three indices, and at
    p = 40 one curve scaled by 1e10 makes the lanes of a group take
    different scales."""
    rng = np.random.default_rng(100 * n + d)
    pattern = [5, 2, 7, 2, 7, 3, 7, 3, 3]
    lengths = pattern[:n] + rng.integers(1, 9, max(0, n - len(pattern))).tolist()
    curves = [Curve(f"c{i}", rng.normal(0, 3, (m, d))) for i, m in enumerate(lengths)]
    if n >= 5:
        curves[n // 2] = Curve("big", 1e10 * curves[n // 2].points)
    idx = np.arange(n)
    if n >= 3:
        idx = np.concatenate([idx, [n - 1, 1]])  # curve 1 three times, n - 1 twice
        idx[0] = 1
    return curves, idx


def _fused_closures():
    """For n in 1, 2, 3, 5, 9 and 50, d = 1 and 2 and p = 1, 2 and 40, the
    bytes of build_closure on a selection with repeats, after checking that
    it has the bits of shortest_path_closure on dtw_self_matrix, that
    dtw_self_matrix has the bits of the np.triu_indices reference, and that
    _self_triangle's diagonal and upper triangle are dtw_self_matrix's."""
    out = []
    for n in (1, 2, 3, 5, 9, 50):
        for d in (1, 2):
            curves, idx = _fused_case(n, d)
            chosen = CurveSet(curves).take(idx)
            upper = np.triu(np.ones((idx.size, idx.size), dtype=bool))
            rows, cols = np.triu_indices(idx.size, k=1)
            for p in (1.0, 2.0, 40.0):
                base = dtw_self_matrix(chosen, p)
                reference = np.zeros_like(base)
                values = dtw_module._pair_values(chosen, chosen, rows, cols, p)
                reference[rows, cols] = reference[cols, rows] = values
                assert base.tobytes() == reference.tobytes()
                triangle = dtw_module._self_triangle(chosen, p)
                assert triangle[upper].tobytes() == base[upper].tobytes()
                fused = build_closure(chosen, p).dist
                assert fused.tobytes() == shortest_path_closure(base).tobytes()
                out.append(fused.tobytes())
    return out


def test_the_fused_closure_has_the_bits_of_the_checked_route(fresh_library, monkeypatch, tmp_path):
    """On the compiled kernels where they can be built, and after a failed
    build, with the same bits on both."""
    compiled = _fused_closures()
    monkeypatch.setattr(_kernels, "_CC", "dtwmedian-no-such-compiler")
    monkeypatch.setattr(_kernels, "_CACHE", str(tmp_path / "cache"))
    _kernels.library.cache_clear()
    with pytest.warns(UserWarning, match="dtwmedian-no-such-compiler"):
        fallback = _fused_closures()
    assert _kernels.library() is None
    assert fallback == compiled


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "reference"])
def test_the_fused_closure_rejects_nan_and_negative_entries(monkeypatch, compiled):
    """DTW values of finite curves are never NaN or negative; a matrix that
    holds one anyway still raises, checked once on the closed matrix."""
    if not compiled:
        monkeypatch.setattr(_kernels, "library", lambda: None)
    curves, idx = _fused_case(9, 2)
    chosen = CurveSet(curves).take(idx)
    for bad in (np.nan, -0.5):
        def triangle(curves, p, bad=bad):
            base = dtw_self_matrix(curves, p)
            base[2, 7] = base[7, 2] = bad
            return base

        with monkeypatch.context() as patch:
            patch.setattr(closure, "_self_triangle", triangle)
            with pytest.raises(ValidationError):
                build_closure(chosen, 1.0)
