"""Workloads of the dtwmedian benchmark and the seeds derived for them.

Every workload is a ``gen_synthetic`` instance in d=2; README.md says why
each was chosen. The input seed is the workload seed itself. The pipeline
seed of a run is derived from it, so runs with different workload seeds also
draw different coresets and local-search starts, and a change that only
reorders random draws does not shift every run's cost the same way.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    clusters: int
    per_cluster: int
    m: int
    noise: float
    k: int
    ell: int
    p: float
    d: int = 2

    @property
    def n(self):
        return self.clusters * self.per_cluster

    def gen_args(self, seed):
        """Positional arguments of ``gen_synthetic`` for this workload."""
        return (self.clusters, self.per_cluster, self.m, self.d, self.noise, seed)


# Inputs are random walks. When k=4 clusters must merge 8 planted templates,
# the cost depends on how those few templates happen to lie: its spread
# across seeds (IQR/median) was 0.32 on n=1000 and 0.21 on n=200, at or above
# the largest bound a metric may have. With one walk per curve the cost
# concentrates (0.03 and 0.07).
WORKLOADS = {
    w.name: w
    for w in (
        # n=1000 short curves: the bicriteria closure over all simplified
        # curves dominates (DTW pairs and the O(n^3) shortest paths).
        Workload("many_short", clusters=1000, per_cluster=1, m=32, noise=0.5, k=4, ell=4, p=1.0),
        # n=200 long curves at p=2: simplification dominates, closures are small.
        Workload("few_long", clusters=200, per_cluster=1, m=128, noise=0.5, k=4, ell=8, p=2.0),
        # many_short's curves and parameters with 40 distinct curves, each
        # repeated 13 times: 92% exact duplicates and zero-weight closure
        # edges, so deduplication or pair caching shows here and not on
        # many_short. At n=1000 a call took 3-6 s and a run fitted only
        # three calls of each route; the spread of cluster_s over ten seeds
        # reached 0.166. At n=520 a run fits about ten calls of each route.
        # Fewer templates would make the cost depend on where they lie
        # (20 templates: cost spread 0.17 over ten seeds; 40: 0.08-0.11).
        Workload("repeated", clusters=40, per_cluster=13, m=32, noise=0.0, k=4, ell=4, p=1.0),
    )
}


def pipeline_seed(seed):
    """The pipeline seed of a run, derived from its workload seed."""
    digest = hashlib.sha256(f"dtwmedian-bench:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1
