"""The package's compiled kernels: one C source, ``_kernels.c``, built into
one library on first use and loaded with ``ctypes``.

The library holds four functions, each pinned to the bits of a numpy
reference: ``floyd_warshall`` (the closure, ``closure.py``), ``dtw_pairs``
(p-DTW values of curve pairs, ``dtw.py``), ``medoid_partition`` (the parts
and centers of the medoid simplifications, ``simplify.py``) and
``swap_costs`` (every k-median swap's cost in a round, ``kmedian.py``).
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

It is compiled with ``cc -O3 -ffp-contract=off -falign-loops=64 -shared
-fPIC``. ``floyd_warshall``'s tile pass keeps its twelve accumulators in a
6 x 2 array of vectors, each lane taking ``t < a ? t : a`` as an explicit
``minpd``; at -O3 gcc unrolls the loops over the array and keeps it in
registers (gcc 12.2: no stack access in the snapshot loop, and the same
speed as twelve named variables). It uses 4-lane vectors in a function
built for AVX2, picked with ``__builtin_cpu_supports`` on a host that has
it, and 2-lane SSE2 vectors elsewhere. One vector type cannot serve both: without AVX, gcc splits a
4-lane minimum into single lanes. So the library builds on x86-64 hosts
only; elsewhere the fallback below runs. ``dtw_pairs`` and
``medoid_partition`` pick their width the same way: they run four (AVX2)
or two (SSE2) pairs or curves of one shape at once, one per lane, and each
lane does the operations of the one-pair loop or of the numpy reference in
their order. An avx2 clone of a DP loop vectorises within one pair, where
each cell waits on its left neighbour; such clones were slower in three of
four measured cases (2-core x86-64 host, gcc 12.2) while they doubled the
build time. Lanes that hold different pairs or curves do not wait on each
other: at p = 1 and 2, four lanes made ``dtw_pairs`` 1.8-3.4x faster and
two lanes 1.4-2.5x. Four lanes took ``medoid_partition`` from 50-53 to
26-32 ms on 200 curves of 128 points (ell = 8, p = 2), and from 7.8-9.6 to
3.7-5.6 ms on 1000 curves of 32 points (ell = 4, p = 1), against one curve
at a time (medians of two alternating sets, same host). A lone curve fills
the lanes with copies of itself: 0.58 ms at 128 points, against 0.27 ms
one curve at a time.
``swap_costs`` adds each sum in order, and its avx2 clone ran within 5% of
the plain loop (same host). Every array the functions read or write is
row-major and contiguous; ``Curve`` stores its points that way, and
``FiniteMetricInstance`` its distances and weights.
``-ffp-contract=off`` forbids fused multiply-adds, so every operation
rounds as written. ``-ffast-math`` is excluded: it lets the compiler assume
there are no infinities and reorder arithmetic, which breaks the closure's
inf entries and the bits. ``-march=native`` is excluded because a cached
library can outlive the host it was built on. ``-falign-loops=64`` puts
loop heads on 64-byte lines, so an inner loop keeps its place in the lines
when an edit to another function moves this one. The hot loops are short:
the range-table loop of the medoid lanes, most of the simplification's
time, is 26 bytes with AVX2 (gcc 12.2), and the flag keeps it on one line.
A loop of that kind, the 34-byte table loop of the one-curve medoid
simplification that the lanes replaced, ran 15-25% slower when a longer
``floyd_warshall`` moved it across two lines (same host). Today's source
runs as fast without the flag (every kernel within the noise, built both
ways and timed alternately in one process), so the flag guards against the
next move rather than a present one.
The library is built on first use, not at import, and cached in this
package's ``__pycache__`` under a name hashed from the source, the compiler
and the flags. It is written to a temporary file and renamed into place, so
concurrent first uses are safe. A build then removes the libraries of
earlier sources from that directory. If that directory cannot be written,
the library is built in a private temporary directory for the process.

The one fallback rule: when no library can be built or loaded (a host
without a C compiler), ``library()`` is None and every caller runs its
numpy reference, with the same bits but 5-50x slower. ``library()`` then
warns once, with a ``UserWarning`` that names the compiler and its last
line of error output.
"""

from __future__ import annotations

import functools
import glob
import os
import warnings

_SOURCE = os.path.join(os.path.dirname(__file__), "_kernels.c")
_CACHE = os.path.join(os.path.dirname(__file__), "__pycache__")
_CC = "cc"
_CFLAGS = ("-O3", "-ffp-contract=off", "-falign-loops=64", "-shared", "-fPIC")


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
    ptr, size = ctypes.c_void_p, ctypes.c_ssize_t
    signatures = {
        "floyd_warshall": (ptr, size, ptr, size),
        "dtw_pairs": (ptr, ptr, ptr, size, ptr, ptr, size, ctypes.c_double, ptr, ptr),
        "medoid_partition": (
            ptr, size, size, size, ctypes.c_double, size, ctypes.c_int, ptr, ptr, ptr, ptr, ptr
        ),
        "swap_costs": (ptr, size, ptr, size, ptr, size, ptr, ptr),
    }
    for symbol, argtypes in signatures.items():
        function = getattr(lib, symbol)
        function.argtypes = argtypes
        function.restype = None
    return lib


def _unavailable(error):
    """None, after a warning that names the compiler and why no library could
    be built or loaded: the last line the compiler wrote, or the error."""
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
