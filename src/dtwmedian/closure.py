"""Metric closure of p-DTW restricted to a finite curve set.

The closure is the all-pairs shortest-path completion of the complete graph
whose edge weights are pairwise p-DTW values. Zero-weight edges between
duplicate curves are kept (the closure is a semimetric). The exact route,
``cluster_via_closure``, collapses duplicates before it builds a closure:
each distinct curve is one point, weighted by its number of inputs. Other
closures (bicriteria samples, coresets) may still hold one sequence under
several ids; on a dense matrix their zero is just a zero.

``shortest_path_closure`` runs Floyd-Warshall on min(base, base^T) with a
zero diagonal, as a small C kernel (``_closure.c``) whose bits are pinned to
``floyd_warshall_reference``. Both loop k outermost and set d[i][j] =
min(d[i][j], d[i][k] + d[k][j]), one rounded addition and one comparison
per entry. The kernel updates in place, row by row, where the reference
relaxes the whole matrix per k, and it skips i = k and the rows whose
d[i][k] is inf. None of this changes a bit: with non-negative weights, row
k and column k do not change in step k, and an inf d[i][k] changes no
entry. scipy's ``floyd_warshall`` does the same arithmetic; the tests keep
it as an independent cross-check, and the package does not import scipy.

The kernel is compiled with ``cc -O3 -ffp-contract=off -shared -fPIC``, and
``target_clones("avx2", "default")`` picks the vector loop when the library
loads. ``-ffp-contract=off`` forbids fused multiply-adds, so every operation
rounds as written. ``-ffast-math`` is excluded: it lets the compiler assume
there are no infinities and reorder arithmetic, which breaks the inf skip
and the bits. ``-march=native`` is excluded because a cached library can
outlive the host it was built on. The library is built on first use, not at
import, and cached in this package's ``__pycache__`` under a name hashed
from the source, the compiler and the flags. It is written to a temporary
file and renamed into place, so concurrent first uses are safe. If that
directory cannot be written, the library is built in a private temporary
directory for the process. The one fallback rule: when no library can be
built or loaded (a host without a C compiler), the closure is
``floyd_warshall_reference`` on the same matrix, with the same bits.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np

from .curves import ResourceGuardError, ValidationError
from .dtw import dtw_self_matrix

CLOSURE_SIZE_CAP = 20000

_SOURCE = os.path.join(os.path.dirname(__file__), "_closure.c")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
_CC = "cc"
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


@dataclass(frozen=True)
class MetricClosure:
    """Shortest-path closure ``dist`` over the pairwise p-DTW matrix ``base``."""

    ids: tuple[str, ...]
    dist: np.ndarray
    base: np.ndarray

    def __post_init__(self):
        n = len(self.ids)
        if self.dist.shape != (n, n) or self.base.shape != (n, n):
            raise ValidationError("closure matrices must be n x n")


@functools.cache
def _kernel():
    """The compiled Floyd-Warshall, built and loaded on first use; None when
    no library can be built or loaded."""
    import ctypes
    import hashlib
    import subprocess
    import tempfile

    command = [_CC, *_CFLAGS]
    try:
        with open(_SOURCE, "rb") as f:
            digest = hashlib.sha256(f.read() + " ".join(command).encode()).hexdigest()
    except OSError:
        return None
    name = f"_closure-{digest[:16]}.so"

    def load(directory):
        lib = os.path.join(directory, name)
        if not os.path.exists(lib):
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
            os.close(fd)
            try:
                subprocess.run(
                    [*command, "-o", tmp, _SOURCE], check=True, capture_output=True, timeout=300
                )
                os.replace(tmp, lib)
            finally:
                if os.path.exists(tmp):
                    os.remove(tmp)
        return ctypes.CDLL(lib).floyd_warshall

    failures = (OSError, subprocess.SubprocessError)
    try:
        os.makedirs(_CACHE, exist_ok=True)
        kernel = load(_CACHE)
    except failures:
        try:
            # the process keeps the loaded library after its file is removed
            with tempfile.TemporaryDirectory(
                prefix="dtwmedian-", ignore_cleanup_errors=True
            ) as private:
                kernel = load(private)
        except failures:
            return None
    kernel.argtypes = (ctypes.c_void_p, ctypes.c_ssize_t)
    kernel.restype = None
    return kernel


def shortest_path_closure(base):
    """All-pairs shortest paths of a dense symmetric matrix of non-negative
    weights, with the bits of ``floyd_warshall_reference`` (see the module
    docstring): by the compiled kernel, or by the reference itself on a host
    where the kernel cannot be built. The result is exactly symmetric, and
    zero-weight edges between duplicates are kept."""
    base = np.asarray(base, dtype=np.float64)
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise ValidationError("closure base must be a square matrix")
    dist = np.minimum(base, base.T, order="C")
    np.fill_diagonal(dist, 0.0)
    kernel = _kernel()
    if kernel is None:
        return floyd_warshall_reference(dist)
    kernel(dist.ctypes.data, dist.shape[0])
    return dist


def build_closure(curves, p=1.0, size_cap=CLOSURE_SIZE_CAP) -> MetricClosure:
    """Pairwise p-DTW matrix plus its shortest-path closure for a curve set."""
    curve_list = list(curves)
    n = len(curve_list)
    if n < 1:
        raise ValidationError("need at least one curve")
    if n > size_cap:
        raise ResourceGuardError(f"closure of {n} curves exceeds the cap of {size_cap}")
    base = dtw_self_matrix(curve_list, p)
    return MetricClosure(tuple(c.id for c in curve_list), shortest_path_closure(base), base)


def distances_from_set(base, C):
    """Minimum closure distance from every point to the index set C of a
    dense matrix of non-negative weights (edge u -> v weighs base[u, v]), by
    one multi-source Dijkstra run; unreachable points stay inf.

    Every point is settled once, at its final value, so dist[v] is the
    minimum over the settled u of the rounded sum dist[u] + base[u, v],
    whatever the order among ties: the bits of scipy's ``dijkstra`` with
    ``min_only=True``."""
    base = np.asarray(base, dtype=np.float64)
    C = np.asarray(list(C), dtype=np.intp)
    if C.size == 0:
        raise ValidationError("C must be non-empty")
    if np.any(C < 0) or np.any(C >= base.shape[0]):
        raise ValidationError("C contains out-of-range indices")
    dist = np.full(base.shape[0], np.inf)
    dist[C] = 0.0
    settled = np.zeros(base.shape[0], dtype=bool)
    while True:
        unsettled = np.where(settled, np.inf, dist)
        u = int(np.argmin(unsettled))
        if unsettled[u] == np.inf:
            return dist
        settled[u] = True
        np.minimum(dist, dist[u] + base[u], out=dist)


def floyd_warshall_reference(base):
    """Textbook Floyd-Warshall, one whole-matrix relaxation per k: the
    reference whose bits the compiled kernel must reproduce, and the closure
    itself on a host where the kernel cannot be built."""
    dist = np.array(base, dtype=np.float64)
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist
