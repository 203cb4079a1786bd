import shutil

import numpy as np
import pytest

from dtwmedian import _kernels, simplify
from dtwmedian.curves import Curve

needs_cc = pytest.mark.skipif(shutil.which(_kernels._CC) is None, reason="no C compiler on PATH")


def make_curve(rng, m=None, d=None, cid="c", scale=2.0, m_hi=7):
    m = m or int(rng.integers(1, m_hi))
    d = d or int(rng.integers(1, 4))
    return Curve(cid, rng.normal(0.0, scale, size=(m, d)))


def make_pair(rng, scale=2.0, m_hi=7):
    """Two random curves sharing one ambient dimension."""
    d = int(rng.integers(1, 4))
    return (
        make_curve(rng, d=d, cid="a", scale=scale, m_hi=m_hi),
        make_curve(rng, d=d, cid="b", scale=scale, m_hi=m_hi),
    )


def curve1d(*values, cid="c"):
    return Curve(cid, [[float(v)] for v in values])


def medoid_parts(pts, ell, p, restrict_to_range):
    """The medoid partitions of the curves pts (n, m, d) as lists: each
    curve's parts tuple and its center indices, and the costs array."""
    ends, counts, centers, costs = simplify._medoid_partitions(pts, ell, p, restrict_to_range)
    parts = [simplify._parts(e[:k].tolist()) for e, k in zip(ends, counts)]
    return parts, [c[:k].tolist() for c, k in zip(centers, counts)], costs


def restricted_opt(curves, candidates, k, p):
    """Exact optimum over all k-subsets of a finite candidate center list
    (an upper bound on the true optimum; testing oracle)."""
    from itertools import combinations

    from dtwmedian.dtw import dtw_matrix

    cross = dtw_matrix(list(curves), list(candidates), p)
    best = np.inf
    for combo in combinations(range(cross.shape[1]), k):
        best = min(best, float(cross[:, combo].min(axis=1).sum()))
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def fresh_library():
    """The compiled library is loaded again by the next call, and again
    after the test."""
    _kernels.library.cache_clear()
    yield
    _kernels.library.cache_clear()
