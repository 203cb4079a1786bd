"""The compiled library against its numpy references: the DTW pair loop and
the medoid simplification run compiled when a compiler exists, and a host
without one gets the same bits from the references."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dtwmedian
from dtwmedian import _kernels, simplify
from dtwmedian.curves import Curve, ValidationError
from dtwmedian.dtw import dtw_aligned, dtw_matrix, dtw_self_matrix
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


def mixed_curves(rng, d):
    """Complexities 1 to 9, one curve of 1e10-scaled coordinates, duplicates
    under other ids, and last two curves of complexity 11 given as
    column-major arrays."""
    curves = [Curve(f"c{i}", rng.normal(0, 3, (int(rng.integers(2, 10)), d))) for i in range(8)]
    curves.append(Curve("one", rng.normal(0, 3, (1, d))))
    curves.append(Curve("big", 1e10 * rng.normal(0, 3, (7, d))))
    curves += [Curve("dup0", curves[0].points), Curve("dup_big", curves[-1].points)]
    curves += [Curve(f"f{i}", rng.normal(0, 3, (d, 11)).T) for i in range(2)]
    return curves


def all_results(rng):
    """Every batched DTW value and medoid simplification of mixed curves, as
    bytes, for p in P_VALUES and d = 1, 2, 3."""
    out = []
    for d in (1, 2, 3):
        curves = mixed_curves(rng, d)
        for p in P_VALUES:
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
    ):
        monkeypatch.setattr(module, name, no_fallback)
    assert _kernels.library() is not None
    assert all_results(np.random.default_rng(SEED)) == reference


def test_a_failed_build_gives_the_same_bits(fresh_library, monkeypatch, tmp_path):
    compiled = all_results(np.random.default_rng(SEED))
    monkeypatch.setattr(_kernels, "_CC", "dtwmedian-no-such-compiler")
    monkeypatch.setattr(_kernels, "_CACHE", str(tmp_path / "cache"))
    _kernels.library.cache_clear()
    fallback = all_results(np.random.default_rng(SEED))
    assert _kernels.library() is None
    assert fallback == compiled


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "reference"])
def test_p_below_one_and_mixed_dimensions_raise(rng, monkeypatch, compiled):
    if not compiled:
        monkeypatch.setattr(_kernels, "library", lambda: None)
    curves = [Curve(f"c{i}", rng.normal(0, 1, (5, 2))) for i in range(3)]
    flat = Curve("flat", rng.normal(0, 1, (5, 1)))
    for p in (0.5, float("nan")):
        with pytest.raises(ValidationError):
            dtw_self_matrix(curves, p)
        with pytest.raises(ValidationError):
            dtw_aligned(curves, curves[::-1], p)
        for method in ("two-approx", "vertex"):
            with pytest.raises(ValidationError):
                simplify_set(curves, 2, p, method)
    with pytest.raises(ValidationError):
        dtw_matrix(curves, [flat], 1.0)
    with pytest.raises(ValidationError):
        dtw_self_matrix([*curves, flat], 1.0)


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
