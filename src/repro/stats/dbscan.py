"""DBSCAN over a precomputed distance matrix, from scratch.

Section 5.3.1 justifies affinity propagation by noting that "DBSCAN
struggles with varying-density clusters".  To make that claim testable
rather than rhetorical, this module implements DBSCAN (Ester et al.
1996) on the same pairwise-distance inputs, and the ablation benchmark
compares the two on the country-similarity matrix.

Per the kernel-layer discipline (DESIGN.md, "Stats kernels"),
:func:`dbscan` replaces the per-row/queue scalar loop (kept as a test
oracle under ``tests/oracles``) with a boolean eps-neighborhood matrix
and frontier-array BFS.  Cluster growth is wave-by-wave instead of
point-by-point, but the set of points each cluster reaches (and the
order clusters are seeded, and therefore every label, including which
cluster claims a contested border point first) is identical — labels
and core masks are exactly equal, asserted by the parity suite in
``tests/stats/test_dbscan.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import span as obs_span

#: Label for points assigned to no cluster.
NOISE = -1


@dataclass(frozen=True)
class DBSCANResult:
    """Clustering outcome; noise points carry the label ``NOISE``."""

    labels: np.ndarray
    core_mask: np.ndarray

    @property
    def n_clusters(self) -> int:
        return len({int(l) for l in self.labels if l != NOISE})

    @property
    def n_noise(self) -> int:
        return int(np.sum(self.labels == NOISE))

    def members(self, cluster: int) -> np.ndarray:
        return np.flatnonzero(self.labels == cluster)


def _validated(distances: np.ndarray, eps: float, min_samples: int) -> np.ndarray:
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distances must be a square matrix")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if min_samples < 1:
        raise ValueError("min_samples must be >= 1")
    return d


def dbscan(
    distances: np.ndarray,
    eps: float,
    min_samples: int = 3,
) -> DBSCANResult:
    """Density-based clustering on a symmetric distance matrix.

    A point is *core* if at least ``min_samples`` points (including
    itself) lie within ``eps``.  Clusters grow by breadth-first
    expansion from core points; border points join the first cluster
    that reaches them; everything else is noise.

    Vectorized: neighborhoods come from one boolean ``d <= eps`` matrix
    and each BFS wave labels a whole frontier at once — label-identical
    to the per-point queue BFS.
    """
    d = _validated(distances, eps, min_samples)
    n = d.shape[0]
    with obs_span("stats.dbscan", points=n, eps=float(eps), min_samples=min_samples):
        within = d <= eps
        core = within.sum(axis=1) >= min_samples
        labels = np.full(n, NOISE, dtype=int)

        cluster = 0
        for start in range(n):
            if labels[start] != NOISE or not core[start]:
                continue
            labels[start] = cluster
            frontier = np.array([start])
            while frontier.size:
                # Only core points expand; border points stop the wave.
                expanding = frontier[core[frontier]]
                if expanding.size == 0:
                    break
                reached = within[expanding].any(axis=0)
                frontier = np.flatnonzero(reached & (labels == NOISE))
                labels[frontier] = cluster
            cluster += 1

    return DBSCANResult(labels=labels, core_mask=core)


def eps_sweep(
    distances: np.ndarray,
    eps_values: np.ndarray,
    min_samples: int = 3,
) -> list[tuple[float, int, int]]:
    """(eps, n_clusters, n_noise) across an eps grid.

    On varying-density data, no single eps yields both many clusters
    and little noise — the failure mode the paper alludes to.
    """
    out = []
    for eps in eps_values:
        result = dbscan(distances, float(eps), min_samples)
        out.append((float(eps), result.n_clusters, result.n_noise))
    return out
