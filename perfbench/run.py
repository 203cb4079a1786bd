#!/usr/bin/env python3
"""Benchmark of dtwmedian's two clustering routes, ``pipeline.kl_median``
(CLI ``cluster``) and ``pipeline.cluster_via_closure`` (CLI
``cluster-exact-route``).

Run from the repository root:

    python3 perfbench/run.py --workload many_short --seed 1 --seconds 30 --trace 0

One run generates the workload from ``--seed``, then calls both routes on it
in turn, every call with the same pipeline seed derived from ``--seed``,
until ``--seconds`` are used (at least three rounds). Every call is checked
(see checks.py); a call that raises or fails a check counts as failed. With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` each
round makes an untraced and a traced call of each route and it prints the
per-layer metrics (see tracing.py). Every time is scaled by a calibration
kernel timed around it (see calibration.py). The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

from calibration import REFERENCE_S, Clock  # noqa: E402
from checks import check_result, duplicate_groups, duplicate_share, sample_indices  # noqa: E402
from tracing import ROUTE_METRICS, Tracer, layer_metrics, per_layer_units  # noqa: E402
from workloads import WORKLOADS, pipeline_seed  # noqa: E402

EPS = 0.5
DELTA = 0.1
SETUP_REPS = 9
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 1
ROUTES = ("cluster", "exact")

END_TO_END_UNITS = {
    "setup_s": "s",
    "cluster_s": "s",
    "exact_s": "s",
    "cluster_cost": "cost",
    "exact_cost": "cost",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

# Set-up as a user pays it: import the package and generate the input, in a
# fresh interpreter.
SETUP_CHILD = """
import json, sys, time
start = time.perf_counter()
import dtwmedian
curves = dtwmedian.gen_synthetic(*json.loads(sys.argv[1]))
print(json.dumps({"setup_s": time.perf_counter() - start, "n": len(curves)}))
"""

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class MissingProgram(RuntimeError):
    """The dtwmedian sources are not next to the benchmark."""


def load_program():
    if not (SRC / "dtwmedian" / "__init__.py").is_file():
        raise MissingProgram(f"no dtwmedian package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dtwmedian
    import dtwmedian.pipeline

    return dtwmedian


def measure_setup(workload, seed, reps):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    clock = Clock()
    times, wall = [], []
    for _ in range(reps):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, json.dumps(workload.gen_args(seed))],
            cwd=HERE.parent,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        doc = json.loads(out.stdout.strip().splitlines()[-1])
        if doc["n"] != workload.n:
            raise RuntimeError(f"set-up generated {doc['n']} curves, expected {workload.n}")
        wall.append(doc["setup_s"])
        times.append(clock.scale(doc["setup_s"]))
    return times, wall, clock


class Calls:
    """Timings, costs and failures of the calls of one run, per route. The
    times are scaled (see calibration.py); ``wall`` keeps them unscaled."""

    def __init__(self, curves, workload, seed):
        self.curves, self.workload = curves, workload
        self.sample = sample_indices(len(curves), seed)
        self.groups = duplicate_groups(curves)
        self.times = {r: [] for r in ROUTES}
        self.traced_times = {r: [] for r in ROUTES}
        self.wall = {r: [] for r in ROUTES}
        self.costs = {r: [] for r in ROUTES}
        self.failures: list[str] = []
        self.attempted = 0
        self.clock = Clock()

    def attempt(self, route, call, traced=False):
        """Time one call and check its result. Every call of a route in a run
        uses the same input and seed, so its cost must repeat bitwise."""
        self.attempted += 1
        label = f"{route}{' (traced)' if traced else ''}"
        start = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # a raising call is counted, the run goes on
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None
        finally:
            wall = time.perf_counter() - start
            (self.traced_times if traced else self.times)[route].append(self.clock.scale(wall))
            if not traced:
                self.wall[route].append(wall)
        problems = check_result(result, self.curves, self.workload, self.sample, self.groups)
        cost = float(result.cost)
        if self.costs[route] and cost.hex() != self.costs[route][0].hex():
            problems.append(f"cost {cost!r} differs from {self.costs[route][0]!r} with the same seed")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems[:3]))
            return None
        self.costs[route].append(cost)
        return result


def _median(values):
    return statistics.median(values) if values else 0.0


def _spread_note(values, wall, what="calls"):
    return (
        f"median of {len(values)} {what}, range {min(values):.3f}-{max(values):.3f}; "
        f"unscaled wall median {_median(wall):.3f}, range {min(wall):.3f}-{max(wall):.3f}"
    )


def _kernel_line(kernel_times):
    return (
        f"calibration kernel: median {_median(kernel_times):.4f} s, range "
        f"{min(kernel_times):.4f}-{max(kernel_times):.4f} over {len(kernel_times)} passes; "
        f"reference {REFERENCE_S} s"
    )


def environment():
    import numpy
    import scipy

    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in THREAD_VARS)
    return (
        f"nproc {os.cpu_count()}, Python {platform.python_version()}, "
        f"numpy {numpy.__version__}, scipy {scipy.__version__}, {threads}"
    )


def traced_metrics(per_route, calls, rounds):
    """Per-layer metrics, each the median over the traced calls of its route,
    with a note; a metric no traced call could give is reported as absent."""
    measured = {}
    absent = {}
    for route in ROUTES:
        for tracer, _ in per_route[route]:
            absent.update(dict.fromkeys(tracer.absent))
            absent.update(dict.fromkeys(f"{route}: {e}" for e in tracer.count_errors))
        for name in ROUTE_METRICS[route]:
            values = [m[name] for _, m in per_route[route] if m[name] is not None]
            key = f"{route}.{name}"
            if values:
                note = f"median of {len(values)} traced calls"
                measured[key] = (float(statistics.median(values)), note)
            else:
                absent[key] = None
                measured[key] = (0.0, "absent")
    overhead = _median(calls.traced_times["cluster"]) / _median(calls.times["cluster"])
    measured["trace.overhead_ratio"] = (
        overhead,
        f"traced over untraced cluster_s, {rounds} round(s)",
    )
    measured["trace.absent"] = (float(len(absent)), ", ".join(absent) or "none")
    return measured


def run(workload, seed, seconds, trace, setup_reps=SETUP_REPS, min_rounds=None):
    """One benchmark run; returns (report lines, result object)."""
    dtwmedian = load_program()
    pipeline = dtwmedian.pipeline
    curves = dtwmedian.gen_synthetic(*workload.gen_args(seed))
    pseed = pipeline_seed(seed)
    cfg = dtwmedian.PipelineConfig(
        k=workload.k, ell=workload.ell, p=workload.p, eps=EPS, delta=DELTA,
        seed=pseed, repetitions=1,
    )
    # the routes are looked up at call time, so the traced rounds see the wrappers
    routes = {
        "cluster": lambda: pipeline.kl_median(curves, cfg),
        "exact": lambda: pipeline.cluster_via_closure(
            curves, workload.k, workload.ell, workload.p, eps=EPS, seed=pseed
        ),
    }
    calls = Calls(curves, workload, seed)
    lines = [
        f"dtwmedian benchmark: workload {workload.name}, seed {seed}, pipeline seed {pseed}",
        f"input: n={workload.n} m={workload.m} d={workload.d} noise={workload.noise} "
        f"duplicate_share={duplicate_share(curves):.3f}; k={workload.k} ell={workload.ell} "
        f"p={workload.p:g} eps={EPS} delta={DELTA} repetitions=1",
        f"environment: {environment()}",
    ]
    setup_times, setup_wall, setup_clock = (
        measure_setup(workload, seed, setup_reps) if not trace else ([], [], None)
    )

    per_route = {r: [] for r in ROUTES}
    if min_rounds is None:
        min_rounds = MIN_TRACED_ROUNDS if trace else MIN_ROUNDS
    start = time.perf_counter()
    rounds = 0
    while True:
        round_start = time.perf_counter()
        # traced and untraced calls alternate in order, so neither side
        # always runs first
        modes = ((False, True) if rounds % 2 == 0 else (True, False)) if trace else (False,)
        for route in ROUTES:
            for traced in modes:
                if not traced:
                    calls.attempt(route, routes[route])
                    continue
                tracer = Tracer()
                with tracer.installed():
                    calls.attempt(route, routes[route], traced=True)
                per_route[route].append((tracer, layer_metrics(tracer.spans, route)))
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and now + (now - round_start) > start + seconds:
            break

    failed = len(calls.failures)
    if trace:
        measured = traced_metrics(per_route, calls, rounds)
    else:
        times, costs = calls.times, calls.costs
        measured = {
            "setup_s": (_median(setup_times), _spread_note(setup_times, setup_wall, "set-ups")),
            **{
                f"{r}_s": (_median(times[r]), _spread_note(times[r], calls.wall[r]))
                for r in ROUTES
            },
            "cluster_cost": (_median(costs["cluster"]), f"{len(costs['cluster'])} equal calls"),
            "exact_cost": (_median(costs["exact"]), f"{len(costs['exact'])} equal calls"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "high-water RSS of this process",
            ),
            "success_rate": (1.0 - failed / calls.attempted, "1 - fail_rate"),
        }
    units = per_layer_units() if trace else END_TO_END_UNITS
    fail_rate = (failed / calls.attempted, f"{failed} of {calls.attempted} calls failed")
    for name, (value, note) in [*measured.items(), ("fail_rate", fail_rate)]:
        lines.append(f"  {name:34s} {value:>16.6g} {units.get(name, 'ratio'):8s} {note}")
    lines.extend(f"  FAILED {f}" for f in calls.failures)
    if setup_clock:
        lines.append(f"set-up {_kernel_line(setup_clock.kernel_times)}")
    lines.append(f"calls {_kernel_line(calls.clock.kernel_times)}")
    result = {
        "correct": failed == 0,
        "attempted": calls.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, (v, _) in measured.items()},
    }
    return lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        lines, result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (MissingProgram, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
