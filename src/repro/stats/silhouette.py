"""Silhouette coefficients for cluster validation (Section 5.3.1).

"To measure the strength of clusters, we use Silhouette Coefficient,
which, given cluster labels and pairwise distances between data points,
quantifies how dense and well separated clusters are on a [−1, 1]
scale."  (Rousseeuw 1987.)

Per the kernel-layer discipline (DESIGN.md, "Stats kernels"),
:func:`silhouette_samples` is the vectorized form of the per-point
Python loop kept as a test oracle under ``tests/oracles``.  The kernel groups the distance matrix's columns
by cluster (stable argsort, preserving original index order within a
cluster) and takes one contiguous ``sum(axis=1)`` per cluster block, so
every per-point per-cluster sum applies numpy's pairwise reduction to
exactly the element sequence the scalar ``d[i, mask].sum()`` reduces —
the results are **bit-identical**, asserted by the hypothesis parity
suite in ``tests/stats/test_silhouette.py`` and the pipeline
byte-parity tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs import span as obs_span


@dataclass(frozen=True)
class SilhouetteReport:
    """Per-point and aggregate silhouette values."""

    values: np.ndarray          # silhouette per point
    labels: np.ndarray

    @property
    def average(self) -> float:
        """The overall average silhouette coefficient."""
        return float(self.values.mean())

    def cluster_average(self, cluster: int) -> float:
        """Mean silhouette of one cluster's members."""
        mask = self.labels == cluster
        if not mask.any():
            raise ValueError(f"no points in cluster {cluster}")
        return float(self.values[mask].mean())

    def per_cluster(self) -> dict[int, float]:
        return {
            int(c): self.cluster_average(int(c)) for c in np.unique(self.labels)
        }


def _validated(distances: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d = np.asarray(distances, dtype=float)
    labels = np.asarray(labels)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distances must be a square matrix")
    if len(labels) != d.shape[0]:
        raise ValueError("labels length must match the distance matrix")
    if np.any(d < -1e-12):
        raise ValueError("distances must be non-negative")
    unique = np.unique(labels)
    if len(unique) < 2:
        raise ValueError("silhouette requires at least two clusters")
    return d, labels, unique


def silhouette_samples(distances: np.ndarray, labels: np.ndarray) -> SilhouetteReport:
    """Silhouette coefficient for each point given a distance matrix.

    s(i) = (b(i) − a(i)) / max(a(i), b(i)) where a(i) is the mean
    intra-cluster distance and b(i) the mean distance to the nearest
    other cluster.  Singleton clusters score 0 by convention.

    Vectorized: one contiguous block sum per cluster replaces the
    per-point loop, bit-identical to it.
    """
    d, labels, unique = _validated(distances, labels)
    n = d.shape[0]
    k = len(unique)
    inverse = np.searchsorted(unique, labels)
    with obs_span("stats.silhouette", points=n, clusters=k):
        # Group columns by cluster; stable sort keeps each cluster's
        # members in original index order, so each row of a block is the
        # same element sequence the scalar mask extraction yields.
        order = np.argsort(inverse, kind="stable")
        sizes = np.bincount(inverse, minlength=k)
        starts = np.concatenate(([0], np.cumsum(sizes)))
        grouped = np.ascontiguousarray(d[:, order])
        sums = np.empty((n, k))
        for c in range(k):
            sums[:, c] = grouped[:, starts[c]:starts[c + 1]].sum(axis=1)

        idx = np.arange(n)
        own_size = sizes[inverse]
        with np.errstate(divide="ignore", invalid="ignore"):
            a = sums[idx, inverse] / (own_size - 1)
            means = sums / sizes[None, :].astype(float)
        means[idx, inverse] = np.inf          # b(i) excludes the own cluster
        b = means.min(axis=1)
        denom = np.maximum(a, b)
        with np.errstate(divide="ignore", invalid="ignore"):
            scores = (b - a) / denom
        values = np.where(
            own_size <= 1, 0.0, np.where(denom == 0.0, 0.0, scores)
        )
    return SilhouetteReport(values=values, labels=labels)


def similarity_to_distance(similarity: np.ndarray) -> np.ndarray:
    """Convert a similarity matrix in [0, 1] (e.g. RBO) to distances.

    d = 1 − sim, with the diagonal forced to exactly zero.
    """
    s = np.asarray(similarity, dtype=float)
    if np.any(s < -1e-9) or np.any(s > 1.0 + 1e-9):
        raise ValueError("similarities must lie in [0, 1]")
    d = 1.0 - np.clip(s, 0.0, 1.0)
    np.fill_diagonal(d, 0.0)
    return d
