"""The package's compiled kernels: one C source, ``_kernels.c``, built into
one library on first use and loaded with ``ctypes``.

The library holds four kernels, each pinned to the bits of a numpy
reference: ``floyd_warshall`` (the closure, ``closure.py``), ``dtw_grid``
(the p-DTW matrix of a row set and a column set, or the diagonal and upper
triangle of one set's, ``dtw.py``), ``medoid_partition`` (the parts and
centers of the medoid simplifications, ``simplify.py``) and
``kmedian_search`` (the k-median's single-swap local search, all its
rounds in one call, ``kmedian.py``).
It also exports ``avx2_host``, which the loader asks whether the host has
AVX2, and ``mirror``, which copies a matrix's upper triangle into the
lower one.
``dtw_grid`` is the one DTW driver for both shapes the pipeline reads: the
n x n matrix of every metric closure, of which it writes only the diagonal
and the upper triangle for ``floyd_warshall`` to close in place, and the
inputs x centers matrix of every assignment and of the bicriteria recheck.
It puts four rows of one length in the vector lanes, interleaved once per
group, and reads each column curve where it lies, broadcasting its
coordinates, so no pair is interleaved and no index array of all pairs is
built. Rows go in the lanes, not columns, because the routes' cross
matrices are tall, 40-1000 rows against 4-16 columns: four rows fill the
lanes whatever the column count; columns in the lanes, as the self-matrix
driver it replaced had them, were 2.2x slower at 5 columns. Against the
two drivers it replaced (index pairs, and columns in the lanes for the
self matrix), medians of 15 calls in each of seven alternating processes
(2-core x86-64, gcc 12.2): many_short's 1000 x 16 cross matrix (32-point
walks against 4-point centers, p = 1) went from 2.59 to 2.26 ms, few_long's
200 x 16 (128 points against 8, p = 2) from 3.87 to 3.60 ms, the self
matrix of many_short's 1000 simplified walks from 10.2 to 9.9 ms and
few_long's of 200 from 1.59 to 1.53 ms.
``floyd_warshall`` relaxes only the upper triangle and mirrors it, half the
reference's additions, and takes the steps k in blocks of 16: it first
builds the block's snapshot rows, the reference's row k as it stands before
step k, and then relaxes the rows by all 16 in one pass, so the 8 MB matrix
of n = 1000 is read once per block instead of once per k. The pass takes
six rows at a time, in tiles whose 6 x 2 vector accumulators stay in
registers while each snapshot's two vectors are loaded once for all six
rows; one row at a time, the snapshot loads bounded the pass. The tiles
took the kernel from 72-77 to 42-49 ms at n = 1000 and from 583-628 to
346-348 ms at n = 2000 (2-core x86-64, gcc 12.2). It keeps the reference's
bits because its input is exactly symmetric, IEEE addition is commutative
(so the reference's matrix stays symmetric, and its d[i][k] is entry i of
snapshot row k), and min is exact, so the order in which an entry takes its
minima changes no bit as long as every sum has the reference's two
operands; a tile changes only that order. The textbook blocked order reads
d[i][k] after the whole block and does not keep the bits; ``closure.py``
says more.

It is compiled with ``cc -O3 -ffp-contract=off -shared -fPIC``.
``floyd_warshall``'s tile pass keeps its twelve accumulators in a 6 x 2
array of vectors, each lane taking ``t < a ? t : a`` as an explicit
``minpd``; at -O3 gcc unrolls the loops over the array and keeps it in
registers (gcc 12.2: no stack access in the snapshot loop, and the same
speed as twelve named variables).
Every vector holds four doubles, and the functions that compute on them are
built for AVX2 (``target("avx2")``): without AVX, gcc splits a 4-lane
minimum into single lanes. So each kernel has one width and one DP loop.
``dtw_grid`` and ``medoid_partition`` run four rows or curves of one
length at once, one per lane, and each lane does the operations of the
numpy reference in their order. A group of fewer than four, like the last
group of curves, fills the other lanes with copies of its last row or
curve, whose results are not written; the benchmark's rows nearly all
fill whole groups. An avx2 clone of a DP loop vectorises within one pair, where
each cell waits on its left neighbour; such clones were slower in three of
four measured cases (2-core x86-64 host, gcc 12.2) while they doubled the
build time. Lanes that hold different pairs or curves do not wait on each
other: at p = 1 and 2, four lanes made the DTW loop 1.8-3.4x faster than
one pair at a time. Four lanes took ``medoid_partition`` from 50-53 to
26-32 ms on 200 curves of 128 points (ell = 8, p = 2), against one curve
at a time (medians of two alternating sets, same host). Taking the local
medoid into the partition DP, O(ell m^2) per curve for an O(m^3) range
table, took those 200 curves from 12-16 to 9-11 ms, and 8 curves of 1000
points from 261-290 to 71-99 ms (medians of two alternating sets). A lone
curve fills the lanes with copies of itself: one ``simplify_2approx_detailed``
call on 128 points then took 0.18-0.28 ms, against 0.25-0.41 ms before.
``kmedian_search`` runs four centers at once, one per lane, and adds each
swap's sum in index order in its lane; one base vector serves eight
candidate rows, read in place, whose sums overlap. With the rounds'
nearest centers and swap choice also in C, one search at k = 4 took 116
against 267 us at n = 40 and 4.8 against 8.8 ms at n = 1000, where a
Python loop of rounds called a scalar swap-cost loop (medians, same
host). Every array the functions read or write is row-major and
contiguous; ``FiniteMetricInstance`` stores its distances and weights that
way. Curves reach ``dtw_grid`` as curve sets (``curves.CurveSet``): one
row-major points array, with each curve's offset and length, gathered
where the set is a selection, so a subset costs no copy of points.
``dtw_grid`` takes a row set and a column set, which may be one, and a
stable argsort of the row lengths; ``medoid_partition`` gets each batch's
points as an (n, m, d) array, a view of the set's buffer where the batch's
curves lie back to back and a gathered copy otherwise.
``-ffp-contract=off`` forbids fused multiply-adds, so every operation
rounds as written. ``-ffast-math`` is excluded: it lets the compiler assume
there are no infinities and reorder arithmetic, which breaks the closure's
inf entries and the bits. ``-march=native`` is excluded because a cached
library can outlive the host it was built on. No loop-alignment flag is
set: built with and without ``-falign-loops=64`` and timed alternately in
one process, the DTW pair loop ran 9% faster without it (41 of 41 pairs),
``medoid_partition`` on 128-point curves 2% slower in one set of 41 pairs
and not in another of 25, and the other kernels within the noise (same
host).
The library is built on first use, not at import, which takes 0.9-1.5 s
(medians of 1.18 and 0.91 s in two sets of five cold builds, same host),
and is cached in this package's ``__pycache__`` under a name hashed from
the source and the command string (``cc`` and the flags): the compiler's
name, not its version. It is written to a temporary file and renamed into
place, so concurrent first uses are safe. A build then removes the libraries
of earlier sources from that directory. If that directory cannot be written,
the library is built in a private temporary directory for the process.

The one fallback rule: when no library can be built or loaded (a host
without a C compiler, or one that is not x86-64, where the AVX2 builtins
do not compile), or the host has no AVX2, ``library()`` is None and every
caller runs its numpy reference, with the same bits but 5-50x slower.
``library()`` asks the loaded library's ``avx2_host``, which is not built
for AVX2, once. So an x86-64 host without AVX2 loses the compiled speed
rather than keep a 2-lane copy of every kernel: the closure of 1000
simplified ``many_short`` walks took 3.1-3.3 s in numpy, against 0.07 s
compiled (same host). ``library()`` then warns once, with a
``UserWarning`` that names the compiler and its last line of error
output, or the missing AVX2.
"""

from __future__ import annotations

import functools
import glob
import os
import warnings

_SOURCE = os.path.join(os.path.dirname(__file__), "_kernels.c")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
_CC = "cc"
_CFLAGS = ("-O3", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def library():
    """The compiled library, its functions typed, built and loaded on first
    use; None when no library can be built or loaded."""
    import ctypes
    import hashlib
    import subprocess
    import tempfile

    command = [_CC, *_CFLAGS]
    try:
        with open(_SOURCE, "rb") as f:
            digest = hashlib.sha256(f.read() + " ".join(command).encode()).hexdigest()
    except OSError as error:
        return _unavailable(error)
    name = f"_kernels-{digest[:16]}.so"

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
            _prune(directory, name)
        return ctypes.CDLL(lib)

    failures = (OSError, subprocess.SubprocessError)
    try:
        os.makedirs(_CACHE, exist_ok=True)
        lib = load(_CACHE)
    except failures:
        try:
            # the process keeps the loaded library after its file is removed
            with tempfile.TemporaryDirectory(
                prefix="dtwmedian-", ignore_cleanup_errors=True
            ) as private:
                lib = load(private)
        except failures as error:
            return _unavailable(error)
    if not lib.avx2_host():
        return _unavailable(OSError("the host has no AVX2"))
    for symbol, argtypes in _signatures(ctypes).items():
        function = getattr(lib, symbol)
        function.argtypes = argtypes
        function.restype = None
    return lib


def _signatures(ctypes):
    """The argument types of the library's functions that return nothing,
    by name: every non-static function of ``_kernels.c`` but ``avx2_host``."""
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    return {
        "floyd_warshall": (ptr, size, ptr, size),
        "dtw_grid": (
            ptr, ptr, ptr, ptr, size, ptr, ptr, ptr, size, size, ctypes.c_int,
            ctypes.c_double, ptr, ptr,
        ),
        "mirror": (ptr, size),
        "medoid_partition": (
            ptr, size, size, size, ctypes.c_double, size, ctypes.c_int, ptr, ptr, ptr, ptr, ptr
        ),
        "kmedian_search": (
            ptr, size, ptr, ptr, size, ctypes.c_double, ctypes.c_double, size, ptr, ptr
        ),
    }


def _unavailable(error):
    """None, after a warning that names the compiler and why no library could
    be built, loaded or used: the last line the compiler wrote, or the
    error."""
    stderr = getattr(error, "stderr", None) or b""
    lines = stderr.decode(errors="replace").strip().splitlines()
    warnings.warn(
        f"dtwmedian: no compiled library from {_CC!r} ({lines[-1] if lines else error}); "
        "the numpy references run in its place, 5-50x slower",
        UserWarning,
        stacklevel=3,
    )
    return None


def _prune(directory, keep):
    """Remove the libraries of earlier sources from directory, best effort: a
    process that has one loaded keeps it mapped after its file is gone."""
    for pattern in ("_kernels-*.so", "_closure-*.so"):
        for stale in glob.glob(os.path.join(directory, pattern)):
            if os.path.basename(stale) != keep:
                try:
                    os.remove(stale)
                except OSError:
                    pass
