import collections
import sys
import tracemalloc

import numpy as np
import pytest

from dtwmedian.bicriteria import bicriteria_klmedian
from dtwmedian.closure import build_closure
from dtwmedian.coreset import (
    bicriteria_alpha_factor,
    coreset_sample,
    coreset_size,
    sensitivity_bounds,
)
from dtwmedian.curves import (
    Curve,
    CurveSet,
    PipelineConfig,
    ValidationError,
    distinct_curves,
    gen_synthetic,
    load_weighted,
    save_weighted,
    spawn_seeds,
)
from dtwmedian.dtw import assign_nearest, dtw_brute, dtw_value
from dtwmedian import _kernels, bicriteria, pipeline, simplify
from dtwmedian.kmedian import FiniteMetricInstance, kmedian_local_search
from dtwmedian.pipeline import cluster_via_closure, emit_coreset_only, evaluate, kl_median
from dtwmedian.simplify import simplify_2approx, simplify_set
from conftest import curve1d, needs_cc

TOL = 1e-9


def cfg(**kw):
    base = dict(k=2, ell=2, p=1.0, eps=0.5, delta=0.2, seed=7, repetitions=2)
    base.update(kw)
    return PipelineConfig(**base)


def separated_identical_clusters(k=2, per=6, m=2):
    curves = []
    for c in range(k):
        for r in range(per):
            curves.append(curve1d(*([100.0 * c] * m), cid=f"c{c}_r{r}"))
    return curves


def test_zero_cost_planted_case():
    # k well-separated zero-noise clusters of identical curves with m <= ell
    curves = separated_identical_clusters(k=2, per=5, m=2)
    res = kl_median(curves, cfg(k=2, ell=2))
    assert res.cost == 0.0
    assert len(res.centers) == 2
    # one center per cluster: both clusters see distance 0
    assert np.all(res.distances == 0.0)
    labels = {res.assignment[i] for i in range(5)}
    labels2 = {res.assignment[i] for i in range(5, 10)}
    assert labels != labels2


def test_n_equals_k_bounded_by_simplification_error(rng):
    # size_override large enough that the with-replacement sample catches
    # every curve, so each gets its own simplified center
    curves = [Curve(f"c{i}", rng.normal(0, 3, (6, 2))) for i in range(3)]
    res = kl_median(curves, cfg(k=3, ell=2, repetitions=1, size_override=40))
    bound = sum(dtw_value(c, simplify_2approx(c, 2, 1.0), 1.0) for c in curves)
    assert res.cost <= bound + TOL


def test_exactly_k_centers_with_duplicates():
    # a one-draw coreset gives one center; the other two slots repeat it
    curves = [curve1d(float(i), cid=f"c{i}") for i in range(4)]
    res = kl_median(curves, cfg(k=3, ell=1, repetitions=1, size_override=1))
    assert len(res.centers) == 3 and len(set(res.centers)) == 1
    assert res.cost == evaluate(curves, res.centers[:1], 1.0)["cost"]


def test_single_curve():
    curve = curve1d(0, 1, 5, cid="only")
    center = simplify_2approx(curve, 2, 1.0)
    for res in (
        kl_median([curve], cfg(k=1, ell=2, repetitions=1)),
        cluster_via_closure([curve], 1, 2),
    ):
        assert res.centers == (center,)
        assert res.cost == dtw_value(curve, center, 1.0)


def test_structure_and_determinism(rng):
    curves = list(gen_synthetic(3, 8, 6, 2, 0.5, 31))
    c = cfg(k=3, ell=2, seed=19)
    a = kl_median(curves, c)
    b = kl_median(curves, c)
    assert len(a.centers) == 3
    for center in a.centers:
        assert center.complexity <= 2 and center.dimension == 2
    assert a.cost == b.cost
    assert np.array_equal(a.assignment, b.assignment)
    for ca, cb in zip(a.centers, b.centers):
        assert ca.id == cb.id and np.array_equal(ca.points, cb.points)
    assert set(a.timings) >= {
        "bicriteria",
        "sensitivity",
        "sampling",
        "closure",
        "kmedian",
        "assignment",
    }


def test_timings_are_per_repetition(monkeypatch):
    # a clock that advances by 1 per reading: each stage of one run reads 1.0
    ticks = iter(range(10**6))
    monkeypatch.setattr(pipeline.time, "perf_counter", lambda: float(next(ticks)))
    curves = list(gen_synthetic(2, 6, 5, 1, 0.4, 3))
    res = kl_median(curves, cfg(repetitions=3))
    # the call's one preparation is every repetition's "simplify"
    assert len(res.timings) == 7 and "simplify" in res.timings
    assert all(v == 1.0 for v in res.timings.values())


def test_provenance_resolves_to_inputs(rng):
    curves = list(gen_synthetic(2, 8, 5, 1, 0.4, 13))
    ids = {c.id for c in curves}
    res = kl_median(curves, cfg(seed=3))
    assert all(center.id in ids for center in res.centers)


def test_each_input_is_simplified_once_per_call(monkeypatch):
    calls, simplified, collapsed = [], [], []
    original = simplify._medoid_simplifications

    def counting(store, *args):
        calls.append(store.lengths.size)
        return original(store, *args)

    def simplifying(curves, *args):
        simplified.append(len(curves))
        return simplify_set(curves, *args)

    def collapsing(curves):
        collapsed.append(curves)
        return distinct_curves(curves)

    # every batch of medoid simplifications runs through it, and the pipeline
    # simplifies only in batches
    monkeypatch.setattr(simplify, "_medoid_simplifications", counting)
    monkeypatch.setattr(bicriteria, "simplify_set", simplifying)
    monkeypatch.setattr(bicriteria, "distinct_curves", collapsing)
    routes = [
        lambda curves: kl_median(curves, cfg(k=2, ell=2, repetitions=2)),
        lambda curves: bicriteria.bicriteria_klmedian(curves, 2, 2, repetitions=3),
        lambda curves: cluster_via_closure(curves, 2, 2),
        lambda curves: emit_coreset_only(curves, cfg(k=2, ell=2, repetitions=2)),
    ]
    curves = gen_synthetic(2, 8, 6, 1, 0.4, 17)
    distinct = len(curves)
    repeated = [Curve(f"dup{i}", c.points) for i, c in enumerate(curves[:5])]
    for inputs in (curves, list(curves), list(curves) + repeated):
        for route in routes:
            for log in (calls, simplified, collapsed):
                log.clear()
            route(inputs)
            # a sequence repeated under other ids is simplified once per call
            assert calls == [distinct] and simplified == [distinct]
            # the inputs are collapsed once, all of them, and then their
            # simplifications, for their labels
            assert [len(c) for c in collapsed] == [len(inputs), distinct]
            assert [c.points.tobytes() for c in collapsed[0]] == [
                c.points.tobytes() for c in inputs
            ]
            # a set is read as it is; a list is packed once
            if isinstance(inputs, CurveSet):
                assert collapsed[0] is inputs


PUBLIC_STAGES = (
    "dtw_matrix", "dtw_self_matrix", "simplify_set", "build_closure", "sensitivity_bounds",
    "coreset_sample",
)


def _count_public_calls(monkeypatch):
    """Wrap every binding of each public stage function in the loaded
    dtwmedian modules, as the benchmark's tracer does; returns the counts of
    their calls by name."""
    calls = collections.Counter()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "dtwmedian"]
    for name in PUBLIC_STAGES:
        original = next(
            getattr(m, name) for m in modules
            if getattr(getattr(m, name, None), "__module__", None) == m.__name__
        )

        def counted(*args, name=name, original=original, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_every_layer_enters_through_its_public_function(monkeypatch):
    """The routes reach each stage through the one public function that a
    tracer wraps: kl_median every one of them, with one simplify_set per
    call, and cluster_via_closure the DTW, simplification and closure."""
    calls = _count_public_calls(monkeypatch)
    curves = gen_synthetic(300, 1, 8, 2, 0.5, 5)
    kl_median(curves, PipelineConfig(k=4, ell=2, repetitions=2, seed=1))
    assert all(calls[name] for name in PUBLIC_STAGES), calls
    assert calls["simplify_set"] == 1
    calls.clear()
    cluster_via_closure(curves, 4, 2)
    assert calls["simplify_set"] == calls["build_closure"] == 1 and calls["dtw_matrix"], calls


def test_the_routes_build_no_curve_per_input(monkeypatch):
    """Given a curve set, neither route iterates or indexes it, or a
    selection of it, one curve at a time: the only curves built are the
    centers, at most 4k per bicriteria run and k per clustering."""
    built = []
    iterate, getitem = CurveSet.__iter__, CurveSet.__getitem__

    def counting_iter(self):
        for curve in iterate(self):
            built.append(curve)
            yield curve

    def counting_getitem(self, i):
        out = getitem(self, i)
        if isinstance(out, Curve):
            built.append(out)
        return out

    monkeypatch.setattr(CurveSet, "__iter__", counting_iter)
    monkeypatch.setattr(CurveSet, "__getitem__", counting_getitem)
    curves, k = gen_synthetic(300, 1, 8, 2, 0.5, 5), 4
    kl_median(curves, PipelineConfig(k=k, ell=2, repetitions=2, seed=1))
    assert 0 < len(built) <= 2 * (4 * k + k)
    built.clear()
    cluster_via_closure(curves, k, 2)
    assert len(built) == k


def test_bicriteria_closures_are_built_on_samples(monkeypatch):
    sizes = []
    original = bicriteria._close

    def recording(base):
        sizes.append(base.shape[0])
        return original(base)

    monkeypatch.setattr(bicriteria, "_close", recording)
    curves = list(gen_synthetic(300, 1, 8, 2, 0.5, 5))
    kl_median(curves, PipelineConfig(k=4, ell=2, eps=0.5, repetitions=1, seed=1))
    assert sizes and max(sizes) < len(curves)


@needs_cc
def test_the_exact_route_holds_one_closure_matrix():
    """The final closure is built, closed and read by the k-median in one
    n x n buffer: the traced peak of the route on 300 short walks stays
    below 1.5 such matrices."""
    curves = list(gen_synthetic(300, 1, 32, 2, 0.5, 1))
    assert _kernels.library() is not None
    # the library, and the modules numpy imports on first use, outside the trace
    cluster_via_closure(curves[:8], 4, 4)
    tracemalloc.start()
    try:
        result = cluster_via_closure(curves, 4, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(result.centers) == 4
    assert peak < 1.5 * len(curves) ** 2 * 8


def test_runs_at_eps_one():
    curves = list(gen_synthetic(2, 6, 5, 1, 0.4, 3))
    res = kl_median(curves, cfg(eps=1.0, repetitions=1))
    assert len(res.centers) == 2 and np.isfinite(res.cost)


def test_inputs_sharing_an_id_stay_distinct():
    curves = [
        Curve("a", [[0.0], [0.0]]),
        Curve("a", [[100.0], [100.0]]),
        Curve("b", [[1.0], [1.0]]),
        Curve("c", [[101.0], [101.0]]),
    ]
    for seed in range(4):
        res = kl_median(curves, PipelineConfig(k=2, ell=1, repetitions=1, seed=seed))
        assert res.cost == 4.0


def test_identical_curves():
    curves = [curve1d(3, 1, cid=f"c{i}") for i in range(6)]
    for res in (kl_median(curves, cfg(k=3, ell=2)), cluster_via_closure(curves, 3, 2)):
        assert len(res.centers) == 3
        assert res.cost == 0.0
        assert np.all(res.distances == 0.0)


def test_k_equal_to_n_with_fewer_distinct_curves():
    # two distinct sequences, each under three ids; k = n = 6 leaves four
    # slots for the padding to fill
    pair = [curve1d(0, 1, 5), curve1d(9, 9, 8)]
    curves = [Curve(f"c{r}_{i}", c.points) for r in range(3) for i, c in enumerate(pair)]
    exact = cluster_via_closure(curves, 6, 2)
    for res in (exact, kl_median(curves, cfg(k=6, ell=2, repetitions=1))):
        assert len(res.centers) == 6
        for i in range(2, 6):
            assert res.assignment[i] == res.assignment[i % 2]
            assert res.distances[i].tobytes() == res.distances[i % 2].tobytes()
        assert res.cost == float(res.distances.sum())
    # each sequence is its own cluster, centered at its simplification
    for i, c in enumerate(pair):
        assert exact.distances[i] == dtw_value(c, simplify_2approx(c, 2, 1.0), 1.0)


def test_one_weighted_point_per_distinct_sequence(monkeypatch):
    drawn, instances = [], []
    draw, solve = pipeline.coreset_sample, pipeline.kmedian_local_search

    def recording_draw(*args):
        out = draw(*args)
        drawn.append(out.weights.sum())
        return out

    def recording_solve(inst, **kw):
        instances.append(inst)
        return solve(inst, **kw)

    monkeypatch.setattr(pipeline, "coreset_sample", recording_draw)
    monkeypatch.setattr(pipeline, "kmedian_local_search", recording_solve)
    base = list(gen_synthetic(3, 4, 6, 2, 0.4, 21))
    # every sequence again under two other ids, after all first inputs
    curves = base + [Curve(f"{c.id}_r{r}", c.points) for r in range(2) for c in base]
    res = kl_median(curves, cfg(k=3, ell=2, repetitions=1, size_override=30))
    inst = instances[-1]
    assert inst.dist.shape[0] <= len(base)
    assert inst.weights.sum() == pytest.approx(drawn[-1], rel=1e-12)
    exact = cluster_via_closure(curves, 3, 2)
    assert instances[-1].dist.shape[0] == len(base)
    # the first inputs of the sequences are the base curves
    first_ids = {c.id for c in base}
    for result in (res, exact):
        assert {c.id for c in result.centers} <= first_ids


def test_rejects_fewer_curves_than_k():
    curves = [curve1d(0, cid="a")]
    with pytest.raises(ValidationError):
        kl_median(curves, cfg(k=2))
    with pytest.raises(ValidationError):
        cluster_via_closure(curves, 2, 1)


def test_cost_recompute_consistency(rng):
    curves = list(gen_synthetic(2, 7, 5, 2, 0.6, 5))
    res = kl_median(curves, cfg(seed=11, repetitions=1))
    ev = evaluate(curves, res.centers, 1.0)
    assert ev["cost"] == pytest.approx(res.cost, abs=TOL)
    assert np.array_equal(ev["assignment"], res.assignment)


def test_evaluate_examples(rng):
    curves = [curve1d(0, 1, cid="a"), curve1d(4, cid="b")]
    ev = evaluate(curves, curves, 1.0)
    assert ev["cost"] == 0.0
    center = curve1d(1, cid="z")
    ev = evaluate(curves, [center], 1.0)
    expected = dtw_brute(curves[0], center, 1.0).value + dtw_brute(
        curves[1], center, 1.0
    ).value
    assert ev["cost"] == pytest.approx(expected, abs=TOL)
    assert ev["per_center"][0]["count"] == 2


def test_cluster_via_closure_basics(rng):
    identical = [curve1d(3, 3, cid=f"c{i}") for i in range(6)]
    res = cluster_via_closure(identical, 2, 2, 1.0, 0.5)
    assert res.cost == 0.0

    curves = [Curve(f"c{i}", rng.normal(0, 3, (5, 2))) for i in range(4)]
    res = cluster_via_closure(curves, 4, 2, 1.0, 0.5)
    bound = sum(dtw_value(c, simplify_2approx(c, 2, 1.0), 1.0) for c in curves)
    assert res.cost <= bound + TOL

    res_eps1 = cluster_via_closure(curves, 2, 2, 1.0, 0.5, method="eps1")
    assert len(res_eps1.centers) == 2


def _partition_signature(assignment):
    groups = {}
    for i, a in enumerate(assignment):
        groups.setdefault(int(a), set()).add(i)
    return frozenset(frozenset(g) for g in groups.values())


def _composed_back_half(curves, drawn, weights, k, p, eps, seed):
    """The back half of both routes from the public functions: one weighted
    point per distinct drawn curve, its closure, the weighted k-median and
    the assignment of every input."""
    points, which = distinct_curves(drawn)
    closure = build_closure(points, p)
    weights = np.bincount(which, weights=weights)
    inst = FiniteMetricInstance(closure.dist, weights, min(k, len(points)))
    sol = kmedian_local_search(inst, eps=eps, seed=seed)
    slots = sol.centers + (sol.centers[0],) * (k - len(sol.centers))
    centers = [points[i] for i in slots]
    return centers, *assign_nearest(curves, centers, p)


def _composed_kl_median(curves, c):
    """kl_median composed from the public functions, seeded as it seeds its
    stages: (cost, centers, assignment, distances, bicriteria cost)."""
    distinct, inverse = distinct_curves(curves)
    simplified = simplify_set(distinct, c.ell, c.p)
    n, m, d = len(curves), max(x.complexity for x in curves), curves[0].dimension
    eps_bicrit = min(c.eps, 0.999)
    alpha = bicriteria_alpha_factor(m, c.ell, c.p, eps_bicrit)
    best = None
    for rep_seed in spawn_seeds(c.seed, c.repetitions):
        seeds = spawn_seeds(rep_seed, 2)
        front = spawn_seeds(seeds[0], 2)
        bicrit = bicriteria_klmedian(curves, c.k, c.ell, c.p, eps_bicrit, front[0], repetitions=1)
        profile = sensitivity_bounds(curves, bicrit, alpha)
        report = coreset_size(
            n, m, c.ell, d, c.k, c.p, c.eps / 46.0, c.delta, alpha, profile.Lambda,
            c.sample_constant,
        )
        size = c.size_override or report.sample_size
        sample = coreset_sample([simplified[j] for j in inverse], profile, size, front[1])
        centers, assignment, distances = _composed_back_half(
            curves, sample.curves, sample.weights, c.k, c.p, c.eps / 46.0, seeds[1]
        )
        cost = float(distances.sum())
        if best is None or cost < best[0]:
            best = (cost, centers, assignment, distances, bicrit.cost)
    return best


def _bits(cost, centers, assignment, distances, bicriteria_cost=None):
    return (
        cost.hex(), [(c.id, c.points.tobytes()) for c in centers], assignment.tobytes(),
        distances.tobytes(), bicriteria_cost,
    )


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("p", [1.0, 2.0, 40.0])
def test_the_packed_path_has_the_bits_of_the_public_functions(d, p):
    """Both routes keep their curves in one packed store and select them by
    index; composed from the public functions, as they seed them, the
    stages give the same costs, centers, assignments and distances. The
    inputs have lengths 1-9 (some at or below ell), one sequence under
    several ids, and sequences of other lengths with one simplification."""
    rng = np.random.default_rng(2024 + d)
    lengths = rng.integers(1, 10, 24)
    curves = [Curve(f"c{i}", rng.normal(0, 3, (m, d))) for i, m in enumerate(lengths)]
    x = rng.normal(0, 3, (2, d))
    alike = [[0, 1], [0, 0, 1], [0, 1, 1, 1]], [[0], [0, 0, 0]]
    for group, rows in enumerate(alike):
        curves += [Curve(f"x{group}_{i}", x[r]) for i, r in enumerate(rows)]
    curves += [Curve(f"again{r}", curves[3].points) for r in range(3)]
    ell, k = 2, 3
    # sequences of different lengths with one simplification: 2 points, then 1
    simplified = [s.points.tobytes() for s in simplify_set(curves[-8:-3], ell, p)]
    assert len(set(simplified[:3])) == len(set(simplified[3:])) == 1
    for repetitions, size in ((1, None), (3, None), (1, 12), (3, 12)):
        c = cfg(k=k, ell=ell, p=p, seed=5, repetitions=repetitions, size_override=size)
        res = kl_median(curves, c)
        got = _bits(res.cost, res.centers, res.assignment, res.distances, res.bicriteria_cost)
        assert got == _bits(*_composed_kl_median(curves, c))
    res = cluster_via_closure(curves, k, ell, p, eps=0.5, seed=5)
    distinct, inverse = distinct_curves(curves)
    centers, assignment, distances = _composed_back_half(
        curves, simplify_set(distinct, ell, p), np.bincount(inverse), k, p, 0.5, 5
    )
    assert _bits(res.cost, res.centers, res.assignment, res.distances) == _bits(
        float(distances.sum()), centers, assignment, distances
    )


@needs_cc
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_both_routes_have_the_same_bits_without_the_library(monkeypatch, p):
    """The compiled kernels and the numpy references they stand in for give
    both routes the same costs, centers, assignments and distances."""
    curves = gen_synthetic(40, 1, 16, 2, 0.5, seed=5)

    def results():
        routes = (
            kl_median(curves, cfg(k=3, ell=4, p=p, repetitions=1)),
            cluster_via_closure(curves, 3, 4, p, eps=0.5, seed=7),
        )
        return [
            (r.cost.hex(), r.assignment.tobytes(), r.distances.tobytes(),
             [(c.id, c.points.tobytes()) for c in r.centers])
            for r in routes
        ]

    compiled = results()
    monkeypatch.setattr(_kernels, "library", lambda: None)
    assert results() == compiled


def test_route_agreement_on_planted_clusters():
    agree = 0
    for seed in range(10):
        curves = list(gen_synthetic(2, 10, 6, 1, 0.3, 900 + seed))
        a = kl_median(curves, cfg(k=2, ell=2, seed=seed, repetitions=2))
        b = cluster_via_closure(curves, 2, 2, 1.0, 0.5, seed=seed)
        if _partition_signature(a.assignment) == _partition_signature(b.assignment):
            agree += 1
    assert agree >= 8


def test_stage_composability():
    ok = 0
    for seed in range(10):
        curves = list(gen_synthetic(3, 10, 6, 2, 0.5, 700 + seed))
        res = kl_median(curves, cfg(k=3, ell=2, seed=seed, repetitions=1))
        if res.cost <= 1.5 * res.bicriteria_cost + TOL:
            ok += 1
    assert ok >= 9


def test_emit_coreset_only(tmp_path, rng):
    identical = [curve1d(2, cid=f"c{i}") for i in range(8)]
    c = cfg(k=2, ell=1, size_override=4, seed=3)
    ws, report, profile = emit_coreset_only(identical, c)
    assert len(ws) == 4
    assert np.allclose(ws.weights, 8 / 4)  # uniform n/size

    # fixed seed -> byte-identical file
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_weighted(emit_coreset_only(identical, c)[0], p1)
    save_weighted(emit_coreset_only(identical, c)[0], p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_coreset_weight_total_expectation():
    curves = list(gen_synthetic(2, 10, 5, 1, 0.5, 44))
    totals = []
    for seed in range(120):
        c = cfg(k=2, ell=2, size_override=len(curves), seed=seed)
        ws, _, _ = emit_coreset_only(curves, c)
        totals.append(sum(w for _, w in ws))
    assert abs(np.mean(totals) - len(curves)) / len(curves) <= 0.02
