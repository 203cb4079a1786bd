import numpy as np
import pytest

from dtwmedian.curves import (
    Curve,
    PipelineConfig,
    ValidationError,
    gen_synthetic,
    load_weighted,
    save_weighted,
)
from dtwmedian.dtw import dtw_brute, dtw_value
from dtwmedian import bicriteria, pipeline, simplify
from dtwmedian.pipeline import cluster_via_closure, emit_coreset_only, evaluate, kl_median
from dtwmedian.simplify import simplify_2approx
from conftest import curve1d

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
    # fewer distinct medoids than k forces padding
    curves = [curve1d(0.0, cid=f"c{i}") for i in range(4)]
    res = kl_median(curves, cfg(k=3, ell=1, repetitions=1, size_override=3))
    assert len(res.centers) == 3
    assert res.cost == 0.0


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
    assert len(res.timings) == 6
    assert all(v == 1.0 for v in res.timings.values())


def test_provenance_resolves_to_inputs(rng):
    curves = list(gen_synthetic(2, 8, 5, 1, 0.4, 13))
    ids = {c.id for c in curves}
    res = kl_median(curves, cfg(seed=3))
    assert all(center.id in ids for center in res.centers)


def test_each_input_is_simplified_once_per_repetition(monkeypatch):
    calls = []
    original = simplify.simplify_2approx

    def counting(sigma, ell, p=1.0):
        calls.append(sigma.id)
        return original(sigma, ell, p)

    # every module that binds the function, so a second binding cannot hide calls
    for module in (simplify, bicriteria, pipeline):
        monkeypatch.setattr(module, "simplify_2approx", counting, raising=False)
    curves = list(gen_synthetic(2, 8, 6, 1, 0.4, 17))
    kl_median(curves, cfg(k=2, ell=2, repetitions=2))
    assert len(calls) == 2 * len(curves)


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
