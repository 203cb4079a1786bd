"""Metric closure of p-DTW restricted to a finite curve set.

The closure is the all-pairs shortest-path completion of the complete graph
whose edge weights are pairwise p-DTW values. Zero-weight edges between
duplicate curves are kept (the closure is a semimetric).

``shortest_path_closure`` runs Floyd-Warshall as a small C kernel
(``_closure.c``) on min(base, base^T) with a zero diagonal, the matrix
scipy's ``floyd_warshall(..., directed=False)`` starts from. The kernel does
scipy's arithmetic in scipy's order: k outermost, then i, then j, skipping
rows whose d[i][k] is inf, and setting d[i][j] = min(d[i][j], d[i][k] +
d[k][j]) in place, one rounded addition and one comparison per step. It
also skips i = k and reads d[i][k] once per row; with non-negative weights
the diagonal stays zero, so neither changes a bit. The closure therefore
has scipy's bits.

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
directory for the process. Only when no library can be built or loaded (a
host without a C compiler) does the closure fall back to scipy's
``floyd_warshall`` on the CSR graph, which gives the same bits.

The CSR graph serves that fallback and ``distances_from_set``. It stores
the zero edges between duplicates as explicit entries, which a dense scipy
input would drop.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import csgraph_from_dense, dijkstra, floyd_warshall

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


def _graph(base):
    return csgraph_from_dense(base, null_value=np.inf)


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
    weights, with scipy's undirected Floyd-Warshall bits (see the module
    docstring): by the compiled kernel, or by scipy on the CSR graph on a
    host where the kernel cannot be built. The result is exactly symmetric,
    and zero-weight edges between duplicates are kept."""
    base = np.asarray(base, dtype=np.float64)
    if base.ndim != 2 or base.shape[0] != base.shape[1]:
        raise ValidationError("closure base must be a square matrix")
    kernel = _kernel()
    if kernel is None:
        return floyd_warshall(_graph(base), directed=False)
    dist = np.minimum(base, base.T, order="C")
    np.fill_diagonal(dist, 0.0)
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
    dense base-weight matrix, via one multi-source Dijkstra run (a
    zero-weight virtual source attached to C)."""
    C = np.asarray(list(C), dtype=np.intp)
    if C.size == 0:
        raise ValidationError("C must be non-empty")
    if np.any(C < 0) or np.any(C >= base.shape[0]):
        raise ValidationError("C contains out-of-range indices")
    return dijkstra(_graph(base), directed=True, indices=C, min_only=True)


def floyd_warshall_reference(base):
    """Textbook Floyd-Warshall; independent reference for the closure."""
    dist = np.array(base, dtype=np.float64)
    n = dist.shape[0]
    for k in range(n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return dist
