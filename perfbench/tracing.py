"""Spans around the public functions of each dtwmedian layer.

``Tracer.installed()`` replaces every binding of a layer function inside the
loaded ``dtwmedian`` modules with a wrapper: module attributes (a name
imported into several modules is wrapped in each of them), default argument
values such as the ``solver`` of ``bicriteria_klmedian``, and the
``SamplingParams.for_instance`` classmethod. On exit every binding is put
back. A wrapper records a span (name, layer, start, end, parent, time of its
child spans) and counts computed from the call's arguments and result; the
wrapped function itself runs unchanged.

A layer function that no longer exists is listed in ``Tracer.absent`` and
the metrics that need it are reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections.abc import Iterator
from contextlib import contextmanager

LAYERS = {
    "dtw": ("dtwmedian.dtw", ("dtw_matrix", "dtw_aligned", "dtw_self_matrix", "dtw")),
    "simplify": ("dtwmedian.simplify", ("simplify_2approx", "simplify_set")),
    "closure": (
        "dtwmedian.closure",
        ("build_closure", "shortest_path_closure", "distances_from_set"),
    ),
    "kmedian": ("dtwmedian.kmedian", ("kmedian_local_search",)),
    "bicriteria": (
        "dtwmedian.bicriteria",
        ("bicriteria_klmedian", "k_median_sampled", "k_routine", "SamplingParams.for_instance"),
    ),
    "coreset": ("dtwmedian.coreset", ("sensitivity_bounds", "coreset_size", "coreset_sample")),
    "pipeline": ("dtwmedian.pipeline", ("kl_median", "cluster_via_closure")),
}

# per-layer metrics of both routes, then those only the coreset route has
COMMON_METRICS = {
    "dtw.calls": "count",
    "dtw.pairs": "count",
    "dtw.cells": "count",
    "dtw.self_s": "s",
    "dtw.cells_per_s": "cells/s",
    "dtw.pairs_per_call": "count",
    "simplify.calls": "count",
    "simplify.self_s": "s",
    "simplify.ms_per_curve": "ms",
    "simplify.repeat_share": "ratio",
    "closure.calls": "count",
    "closure.max_n": "count",
    "closure.n3_sum": "count",
    "closure.self_s": "s",
    "closure.multisource_calls": "count",
    "kmedian.calls": "count",
    "kmedian.max_n": "count",
    "kmedian.self_s": "s",
    "pipeline.self_s": "s",
    "pipeline.assign_s": "s",
}
CORESET_ROUTE_METRICS = {
    "bicriteria.self_s": "s",
    "bicriteria.s_share": "ratio",
    "bicriteria.m_share": "ratio",
    "bicriteria.k_hat": "count",
    "bicriteria.cost": "cost",
    "coreset.size_formula_log10": "log10",
    "coreset.size_used": "count",
    "coreset.unique_share": "ratio",
    "coreset.self_s": "s",
}
ROUTE_METRICS = {
    "cluster": {**COMMON_METRICS, **CORESET_ROUTE_METRICS},
    "exact": COMMON_METRICS,
}
TRACE_METRICS = {"trace.overhead_ratio": "ratio", "trace.absent": "count"}


def per_layer_units():
    """Every per-layer metric name of a traced run, with its unit."""
    units = {
        f"{route}.{name}": unit
        for route, metrics in ROUTE_METRICS.items()
        for name, unit in metrics.items()
    }
    units.update(TRACE_METRICS)
    return units


def _sizes(curves):
    return [c.complexity for c in curves]


def _cross_counts(a, r):
    ma, mb = _sizes(a["curves_a"]), _sizes(a["curves_b"])
    return {"pairs": len(ma) * len(mb), "cells": sum(ma) * sum(mb)}


def _aligned_counts(a, r):
    ma, mb = _sizes(a["curves_a"]), _sizes(a["curves_b"])
    return {"pairs": len(ma), "cells": sum(x * y for x, y in zip(ma, mb))}


def _self_counts(a, r):
    m = _sizes(a["curves"])
    return {"pairs": len(m) * (len(m) - 1) // 2, "cells": (sum(m) ** 2 - sum(x * x for x in m)) // 2}


# counts recorded per function, from its bound arguments and its result
COUNTERS = {
    "dtw_matrix": _cross_counts,
    "dtw_aligned": _aligned_counts,
    "dtw_self_matrix": _self_counts,
    "dtw": lambda a, r: {"pairs": 1, "cells": a["a"].complexity * a["b"].complexity},
    "simplify_2approx": lambda a, r: {"id": a["sigma"].id},
    "build_closure": lambda a, r: {"n": len(r.ids)},
    "shortest_path_closure": lambda a, r: {"n": r.shape[0]},
    "distances_from_set": lambda a, r: {"n": len(r)},
    "kmedian_local_search": lambda a, r: {"n": a["inst"].n},
    "SamplingParams.for_instance": lambda a, r: {"n": a["n"], "s": r.s, "m_size": r.m_size},
    "bicriteria_klmedian": lambda a, r: {"k_hat": len(r.centers), "cost": r.cost},
    "coreset_size": lambda a, r: {"uncapped": r.uncapped_size},
    "coreset_sample": lambda a, r: {"size": len(r), "unique": len({c.id for c, _ in r})},
}


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "child_s", "counts")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.count_errors: list[str] = []
        self._stack: list[Span] = []

    def _wrap(self, layer, name, fn):
        signature = inspect.signature(fn)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # a one-shot iterator must reach the function and the counter alike
            args = [list(v) if isinstance(v, Iterator) else v for v in args]
            kwargs = {k: list(v) if isinstance(v, Iterator) else v for k, v in kwargs.items()}
            parent = self._stack[-1] if self._stack else None
            span = Span(name, layer, parent)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
            if counter is not None:
                try:
                    span.counts = counter(signature.bind(*args, **kwargs).arguments, return_value)
                except (AttributeError, KeyError, TypeError) as exc:
                    self.count_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return return_value

        return traced

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        undo = []
        try:
            # id(original) -> wrapper; each wrapper keeps its original alive, so ids stay unique
            wrappers = {}
            for layer, (module_name, names) in LAYERS.items():
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.absent.extend(f"{module_name}.{n}" for n in names)
                    continue
                for name in names:
                    owner_name, _, attr = name.rpartition(".")
                    owner = getattr(module, owner_name, None) if owner_name else module
                    if owner_name:
                        raw = getattr(owner, "__dict__", {}).get(attr)
                        if not isinstance(raw, classmethod):
                            self.absent.append(f"{module_name}.{name}")
                            continue
                        undo.append((owner, attr, raw))
                        setattr(owner, attr, classmethod(self._wrap(layer, name, raw.__func__)))
                    elif callable(getattr(module, attr, None)):
                        original = getattr(module, attr)
                        wrappers[id(original)] = self._wrap(layer, name, original)
                    else:
                        self.absent.append(f"{module_name}.{name}")
            for module in [m for k, m in sys.modules.items() if k.split(".")[0] == "dtwmedian"]:
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value.__defaults__:
                        defaults = tuple(wrappers.get(id(v), v) for v in value.__defaults__)
                        if any(a is not b for a, b in zip(defaults, value.__defaults__)):
                            undo.append((value, "__defaults__", value.__defaults__))
                            value.__defaults__ = defaults
                    if id(value) in wrappers:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrappers[id(value)])
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)


def _ratio(num, den):
    return num / den if den else None


def layer_metrics(spans, route):
    """Per-layer metrics of one traced top-level call, keyed as in
    ROUTE_METRICS; a metric the spans cannot give is None."""
    by_layer: dict[str, list[Span]] = {}
    for s in spans:
        by_layer.setdefault(s.layer, []).append(s)
    roots = [s for s in spans if s.parent is None]

    def self_sum(layer):
        return sum(s.self_s for s in by_layer.get(layer, ()))

    dtw = by_layer.get("dtw", [])
    dtw_pairs = sum(s.counts.get("pairs", 0) for s in dtw)
    dtw_cells = sum(s.counts.get("cells", 0) for s in dtw)
    dtw_self = self_sum("dtw")

    curves = [s.counts["id"] for s in by_layer.get("simplify", []) if "id" in s.counts]
    simplify_self = self_sum("simplify")

    closure = by_layer.get("closure", [])
    entries = [s for s in closure if s.parent is None or s.parent.layer != "closure"]
    all_pairs_n = [s.counts.get("n", 0) for s in entries if s.name != "distances_from_set"]

    kmedian = by_layer.get("kmedian", [])

    values = {
        "dtw.calls": len(dtw),
        "dtw.pairs": dtw_pairs,
        "dtw.cells": dtw_cells,
        "dtw.self_s": dtw_self,
        "dtw.cells_per_s": _ratio(dtw_cells, dtw_self),
        "dtw.pairs_per_call": _ratio(dtw_pairs, len(dtw)),
        "simplify.calls": len(curves),
        "simplify.self_s": simplify_self,
        "simplify.ms_per_curve": _ratio(1000.0 * simplify_self, len(curves)),
        "simplify.repeat_share": _ratio(len(curves) - len(set(curves)), len(curves)),
        "closure.calls": len(entries),
        "closure.max_n": max((s.counts.get("n", 0) for s in closure), default=0),
        "closure.n3_sum": sum(n**3 for n in all_pairs_n),
        "closure.self_s": self_sum("closure"),
        "closure.multisource_calls": sum(s.name == "distances_from_set" for s in closure),
        "kmedian.calls": len(kmedian),
        "kmedian.max_n": max((s.counts.get("n", 0) for s in kmedian), default=0),
        "kmedian.self_s": self_sum("kmedian"),
        "pipeline.self_s": sum(s.self_s for s in roots),
        "pipeline.assign_s": sum(s.self_s for s in dtw if s.parent in roots),
    }
    if route == "cluster":
        params = [s.counts for s in by_layer.get("bicriteria", []) if "s" in s.counts]
        top = max(params, key=lambda c: c["n"], default=None)
        bicrit = next((s.counts for s in by_layer.get("bicriteria", []) if "k_hat" in s.counts), {})
        sizes = next((s.counts for s in by_layer.get("coreset", []) if "uncapped" in s.counts), {})
        sample = next((s.counts for s in by_layer.get("coreset", []) if "size" in s.counts), {})
        values.update(
            {
                "bicriteria.self_s": self_sum("bicriteria"),
                "bicriteria.s_share": _ratio(top["s"], top["n"]) if top else None,
                "bicriteria.m_share": _ratio(top["m_size"], top["n"]) if top else None,
                "bicriteria.k_hat": bicrit.get("k_hat"),
                "bicriteria.cost": bicrit.get("cost"),
                "coreset.size_formula_log10": (
                    math.log10(sizes["uncapped"]) if sizes.get("uncapped", 0) > 0 else None
                ),
                "coreset.size_used": sample.get("size"),
                "coreset.unique_share": _ratio(sample.get("unique", 0), sample.get("size", 0)),
                "coreset.self_s": self_sum("coreset"),
            }
        )
    return values
