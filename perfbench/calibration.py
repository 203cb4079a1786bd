"""Machine-speed calibration of the benchmark's timings.

The benchmark was tuned on two virtual cores of a shared host whose speed
drifts with the other tenants' load: a fixed piece of work took from 1x to
1.8x its quickest time within a minute, in user CPU time as much as in wall
time. Medians within a run cannot remove a drift that slow.

So every timed call is bracketed by a fixed calibration kernel that uses no
``dtwmedian`` code: the same kind of work the routes do (batched numpy DTW
cells, a dense scipy Dijkstra closure and plain-Python DP loops) on inputs
fixed here. A call's wall time is scaled by ``REFERENCE_S`` over the mean
kernel time before and after it. A change to the program moves the scaled
time as it moves the wall time. A slower phase of the host slows the kernel
too, so the part of the slowdown the kernel shares cancels out.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.sparse.csgraph import shortest_path

from checks import dtw_reference

# Kernel time on the machine the baseline was recorded on, at its quickest:
# scaled times read as seconds on that machine.
REFERENCE_S = 0.05
REPS = 3

_rng = np.random.default_rng(0)
_A = _rng.standard_normal((20000, 4, 2))
_B = _rng.standard_normal((20000, 4, 2))
_GRAPH = _rng.random((200, 200))
_PA = _rng.standard_normal((24, 2)).tolist()
_PB = _rng.standard_normal((24, 2)).tolist()


def kernel():
    """One pass of the calibration work."""
    diff = _A[:, :, None, :] - _B[:, None, :, :]
    dist = np.sqrt(np.einsum("bijk,bijk->bij", diff, diff))
    acc = np.full((_A.shape[0], 5, 5), np.inf)
    acc[:, 0, 0] = 0.0
    for i in range(4):
        for j in range(4):
            best = np.minimum(acc[:, i, j], np.minimum(acc[:, i, j + 1], acc[:, i + 1, j]))
            acc[:, i + 1, j + 1] = dist[:, i, j] + best
    shortest_path(_GRAPH, method="D")
    for _ in range(20):
        dtw_reference(_PA, _PB, 1.0)


def measure():
    """Median wall time of REPS kernel passes."""
    times = []
    for _ in range(REPS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Clock:
    """Scales the wall times of consecutive calls by the kernel times around
    each; the kernel runs once between two calls."""

    def __init__(self):
        self.kernel_times = [measure()]

    def scale(self, wall):
        """Scaled seconds of a call that just took ``wall`` seconds."""
        self.kernel_times.append(measure())
        before, after = self.kernel_times[-2:]
        return wall * REFERENCE_S / ((before + after) / 2.0)
