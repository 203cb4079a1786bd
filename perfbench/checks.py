"""Correctness checks applied to every clustering result the benchmark gets.

The DTW reference here is plain Python and shares no code with
``dtwmedian.dtw``, so it stays a valid check when the package's kernel is
replaced.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9
SAMPLE_SIZE = 32


def dtw_reference(a, b, p):
    """p-DTW of two point sequences by the textbook DP, in plain Python."""
    a = [tuple(map(float, pt)) for pt in a]
    b = [tuple(map(float, pt)) for pt in b]
    prev = [0.0] + [math.inf] * len(b)
    for pa in a:
        cur = [math.inf] * (len(b) + 1)
        for j, pb in enumerate(b):
            cur[j + 1] = math.dist(pa, pb) ** p + min(prev[j], prev[j + 1], cur[j])
        prev = cur
    return prev[-1] ** (1.0 / p)


def sample_indices(n, seed):
    """A fixed sample of about SAMPLE_SIZE input indices for a workload seed."""
    rng = np.random.default_rng([seed, 1])
    return sorted(int(i) for i in rng.choice(n, size=min(SAMPLE_SIZE, n), replace=False))


def duplicate_groups(curves):
    """Index groups of curves with bitwise-equal points (groups of two or more)."""
    groups: dict[tuple, list[int]] = {}
    for i, c in enumerate(curves):
        groups.setdefault((c.points.shape, c.points.tobytes()), []).append(i)
    return [g for g in groups.values() if len(g) > 1]


def duplicate_share(curves):
    """Share of the inputs that exactly repeat an earlier input."""
    return sum(len(g) - 1 for g in duplicate_groups(curves)) / len(curves)


def _close(x, y):
    return math.isclose(x, y, rel_tol=REL_TOL, abs_tol=0.0)


def check_result(result, curves, workload, sample, groups):
    """Problems found in one clustering result; an empty list means it passed.

    Checks: exactly k centers of at most ell vertices; a full assignment with
    finite non-negative distances whose sum is the reported cost; for the
    sampled inputs, the reported distance equals the reference DTW to the
    assigned center, and no other center is nearer; exact duplicates get the
    same center and a bitwise-equal distance.
    """
    n, k = len(curves), workload.k
    centers = list(result.centers)
    if len(centers) != k:
        return [f"expected {k} centers, got {len(centers)}"]
    problems = []
    for i, c in enumerate(centers):
        if c.complexity > workload.ell or c.dimension != workload.d:
            problems.append(f"center {i} has shape {c.points.shape}")
    assignment = np.asarray(result.assignment)
    distances = np.asarray(result.distances, dtype=np.float64)
    if assignment.shape != (n,) or distances.shape != (n,):
        return problems + ["assignment or distances do not cover the input"]
    if assignment.min() < 0 or assignment.max() >= k:
        return problems + ["assignment refers to a missing center"]
    if not np.all(np.isfinite(distances)) or np.any(distances < 0):
        problems.append("distances must be finite and non-negative")
    cost = float(result.cost)
    if not (math.isfinite(cost) and cost >= 0):
        problems.append(f"cost {cost} is not finite and non-negative")
    elif not _close(cost, math.fsum(distances.tolist())):
        problems.append(f"cost {cost!r} differs from the sum of distances")
    for i in sample:
        ref = [dtw_reference(curves[i].points, c.points, workload.p) for c in centers]
        got = float(distances[i])
        if not _close(got, ref[assignment[i]]):
            problems.append(f"input {i}: distance {got!r}, reference {ref[assignment[i]]!r}")
        elif got > min(ref) * (1.0 + REL_TOL):
            problems.append(f"input {i}: assigned at {got!r}, a center is at {min(ref)!r}")
    for g in groups:
        bits = distances[g].view(np.uint64)
        if np.any(assignment[g] != assignment[g[0]]) or np.any(bits != bits[0]):
            problems.append(f"duplicates of input {g[0]} differ in center or distance")
    return problems
