"""Tests of the benchmark harness itself, on tiny versions of its workloads.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import run  # noqa: E402
from checks import check_result, dtw_reference, duplicate_groups, sample_indices  # noqa: E402
from tracing import Tracer, per_layer_units  # noqa: E402
from workloads import WORKLOADS, pipeline_seed  # noqa: E402

run.load_program()
import dtwmedian  # noqa: E402
from dtwmedian import pipeline  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# n=24 versions of each workload, keeping m, k, ell, p and the noise
TINY = {
    "many_short": replace(WORKLOADS["many_short"], clusters=24),
    "few_long": replace(WORKLOADS["few_long"], clusters=24),
    "repeated": replace(WORKLOADS["repeated"], clusters=4, per_cluster=6),
}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == per_layer_units()


@pytest.mark.parametrize("name", list(TINY))
def test_tiny_workload_reports_every_metric(name):
    for trace, declared in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
        lines, result = run.run(TINY[name], 3, 0.01, trace, setup_reps=1, min_rounds=1)
        json.dumps(result)
        assert result["correct"] and result["failed"] == 0, lines
        assert result["attempted"] == (4 if trace else 2)
        assert set(result["metrics"]) == {m["name"] for m in declared}
        for m in declared:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"])
        if trace:
            assert result["metrics"]["trace.absent"]["value"] == 0, lines
            assert result["metrics"]["cluster.simplify.calls"]["value"] > TINY[name].n


def test_clock_scales_each_call_by_the_kernel_times_around_it(monkeypatch):
    kernel_times = iter([0.1, 0.3, 0.05])
    monkeypatch.setattr(calibration, "measure", lambda: next(kernel_times))
    clock = calibration.Clock()
    assert math.isclose(clock.scale(2.0), 2.0 * calibration.REFERENCE_S / 0.2)
    assert math.isclose(clock.scale(1.0), 1.0 * calibration.REFERENCE_S / 0.175)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_reference_dtw_matches_brute_force_oracle(p):
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = dtwmedian.Curve("a", rng.normal(size=(int(rng.integers(1, 6)), 2)))
        b = dtwmedian.Curve("b", rng.normal(size=(int(rng.integers(1, 6)), 2)))
        expected = dtwmedian.dtw_brute(a, b, p).value
        assert math.isclose(dtw_reference(a.points, b.points, p), expected, rel_tol=1e-12)


def _tiny_result(name):
    w = TINY[name]
    curves = dtwmedian.gen_synthetic(*w.gen_args(5))
    cfg = dtwmedian.PipelineConfig(k=w.k, ell=w.ell, p=w.p, seed=pipeline_seed(5), repetitions=1)
    result = pipeline.kl_median(curves, cfg)
    return w, curves, result, sample_indices(len(curves), 5), duplicate_groups(curves)


def test_checks_pass_on_real_result():
    w, curves, result, sample, groups = _tiny_result("repeated")
    assert groups and check_result(result, curves, w, sample, groups) == []


def _corruptions(result, sample, groups):
    d = result.distances.copy()
    d[sample[0]] *= 1.0 + 1e-6
    yield "dropped center", replace(result, centers=result.centers[:-1])
    yield "perturbed distance", replace(result, distances=d, cost=float(d.sum()))
    yield "cost off", replace(result, cost=result.cost * 1.01)
    yield "negative cost", replace(result, cost=-1.0)
    long_center = dtwmedian.Curve("x", np.zeros((9, 2)))
    yield "long center", replace(result, centers=(long_center,) + result.centers[1:])
    far = result.assignment.copy()
    far[sample[0]] = (far[sample[0]] + 1) % len(result.centers)
    yield "wrong center", replace(result, assignment=far)
    d = result.distances.copy()
    g = groups[0]
    d[g[1]] = np.nextafter(d[g[1]], np.inf)
    yield "duplicate differs", replace(result, distances=d, cost=float(d.sum()))


def test_corrupted_results_are_caught():
    w, curves, result, sample, groups = _tiny_result("repeated")
    for label, bad in _corruptions(result, sample, groups):
        assert check_result(bad, curves, w, sample, groups), label


def test_corrupted_calls_count_toward_fail_rate(monkeypatch):
    real = pipeline.kl_median

    def drops_a_center(T, cfg):
        result = real(T, cfg)
        return replace(result, centers=result.centers[:-1])

    monkeypatch.setattr(pipeline, "kl_median", drops_a_center)
    lines, result = run.run(TINY["many_short"], 3, 0.01, False, setup_reps=1, min_rounds=2)
    assert not result["correct"]
    assert (result["attempted"], result["failed"]) == (4, 2)
    assert result["metrics"]["success_rate"]["value"] == 0.5
    assert any("expected 4 centers" in line for line in lines)


def test_changed_cost_under_the_same_seed_fails(monkeypatch):
    real = pipeline.cluster_via_closure
    calls = []

    def drifts(*args, **kwargs):
        result = real(*args, **kwargs)
        calls.append(1)
        d = result.distances * (1.0 + 1e-12 * len(calls))
        return replace(result, distances=d, cost=float(d.sum()))

    monkeypatch.setattr(pipeline, "cluster_via_closure", drifts)
    _, result = run.run(TINY["few_long"], 3, 0.01, False, setup_reps=1, min_rounds=2)
    assert (result["attempted"], result["failed"]) == (4, 1)


def test_tracer_wraps_every_binding_and_restores_it():
    from dtwmedian import bicriteria, closure

    dtw = importlib.import_module("dtwmedian.dtw")  # the package attribute is the function
    before = (pipeline.dtw_matrix, bicriteria.dtw_matrix, closure.dtw_self_matrix,
              bicriteria.bicriteria_klmedian.__defaults__,
              bicriteria.SamplingParams.__dict__["for_instance"])
    tracer = Tracer()
    with tracer.installed():
        assert pipeline.dtw_matrix is bicriteria.dtw_matrix is dtw.dtw_matrix
        assert pipeline.dtw_matrix is not before[0]
        assert bicriteria.bicriteria_klmedian.__wrapped__.__defaults__ != before[3]
        w = TINY["many_short"]
        curves = dtwmedian.gen_synthetic(*w.gen_args(1))
        pipeline.kl_median(curves, dtwmedian.PipelineConfig(k=4, ell=4, repetitions=1))
    after = (pipeline.dtw_matrix, bicriteria.dtw_matrix, closure.dtw_self_matrix,
             bicriteria.bicriteria_klmedian.__defaults__,
             bicriteria.SamplingParams.__dict__["for_instance"])
    assert all(x is y for x, y in zip(before, after))
    assert tracer.absent == []
    layers = {s.layer for s in tracer.spans}
    assert layers == {"dtw", "simplify", "closure", "kmedian", "bicriteria", "coreset", "pipeline"}
    assert [s.name for s in tracer.spans if s.parent is None] == ["kl_median"]
    # the bicriteria solver is a default argument; its calls are traced too
    assert sum(s.name == "kmedian_local_search" for s in tracer.spans) > 1
    assert all(s.self_s >= 0 for s in tracer.spans)


def test_absent_layer_function_is_reported_not_fatal(monkeypatch):
    monkeypatch.delattr(importlib.import_module("dtwmedian.dtw"), "dtw_aligned")
    w = TINY["few_long"]
    curves = dtwmedian.gen_synthetic(*w.gen_args(1))
    tracer = Tracer()
    with tracer.installed():
        pipeline.cluster_via_closure(curves, w.k, w.ell, w.p)
    assert tracer.absent == ["dtwmedian.dtw.dtw_aligned"]
