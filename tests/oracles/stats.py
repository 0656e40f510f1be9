"""Scalar stats references: the loops the vectorised kernels reproduce.

* :func:`kendall_tau_reference` — the O(n²) pair loop from the
  definition of tau-b; :func:`repro.stats.kendall_tau` (Knight's
  algorithm) is bit-identical to it.
* :func:`silhouette_samples_reference` — the per-point loop;
  :func:`repro.stats.silhouette_samples` is bit-identical to it.
* :func:`dbscan_reference` — the per-point queue BFS;
  :func:`repro.stats.dbscan` is label-identical to it.
* :func:`rankdata_reference` — the tie-averaging walk over the sorted
  values; :func:`repro.stats.rankdata` (run-length tie groups) is
  bit-identical to it.

Each validates its inputs exactly as the kernel does, so error cases
agree too.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

import numpy as np

from repro.stats import NOISE, DBSCANResult, SilhouetteReport
from repro.stats.dbscan import _validated as _dbscan_validated
from repro.stats.silhouette import _validated as _silhouette_validated


def rankdata_reference(values: Sequence[float]) -> np.ndarray:
    """Average ranks (1-indexed), ties averaged by walking the sort."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("rankdata expects a 1-D sequence")
    order = np.argsort(arr, kind="mergesort")
    ranks = np.empty(len(arr), dtype=float)
    ranks[order] = np.arange(1, len(arr) + 1, dtype=float)
    sorted_vals = arr[order]
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        if j > i:
            ranks[order[i : j + 1]] = (i + j + 2) / 2.0
        i = j + 1
    return ranks


def kendall_tau_reference(x: Sequence[float], y: Sequence[float]) -> float:
    """Kendall's tau-b (tie-adjusted), O(n²) from the definition.

    Returns ``nan`` for fewer than 2 pairs or when either input is
    constant.  Matches ``scipy.stats.kendalltau``.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        return float("nan")
    concordant = discordant = 0
    ties_x = ties_y = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = x[i] - x[j]
            dy = y[i] - y[j]
            if dx == 0 and dy == 0:
                ties_x += 1
                ties_y += 1
            elif dx == 0:
                ties_x += 1
            elif dy == 0:
                ties_y += 1
            elif (dx > 0) == (dy > 0):
                concordant += 1
            else:
                discordant += 1
    total = n * (n - 1) // 2
    denom = math.sqrt((total - ties_x) * (total - ties_y))
    if denom == 0.0:
        return float("nan")
    return (concordant - discordant) / denom


def silhouette_samples_reference(
    distances: np.ndarray, labels: np.ndarray
) -> SilhouetteReport:
    """The per-point scalar loop :func:`silhouette_samples` reproduces."""
    d, labels, unique = _silhouette_validated(distances, labels)
    n = d.shape[0]
    values = np.zeros(n, dtype=float)
    for i in range(n):
        own = labels[i]
        own_mask = labels == own
        own_size = int(own_mask.sum())
        if own_size <= 1:
            values[i] = 0.0
            continue
        a_i = d[i, own_mask].sum() / (own_size - 1)
        b_i = np.inf
        for other in unique:
            if other == own:
                continue
            other_mask = labels == other
            b_i = min(b_i, float(d[i, other_mask].mean()))
        denom = max(a_i, b_i)
        values[i] = 0.0 if denom == 0.0 else (b_i - a_i) / denom
    return SilhouetteReport(values=values, labels=labels)


def dbscan_reference(
    distances: np.ndarray,
    eps: float,
    min_samples: int = 3,
) -> DBSCANResult:
    """The per-point queue BFS :func:`dbscan` reproduces."""
    d = _dbscan_validated(distances, eps, min_samples)
    n = d.shape[0]
    neighbors = [np.flatnonzero(d[i] <= eps) for i in range(n)]
    core = np.array([len(nb) >= min_samples for nb in neighbors])
    labels = np.full(n, NOISE, dtype=int)

    cluster = 0
    for start in range(n):
        if labels[start] != NOISE or not core[start]:
            continue
        queue = deque([start])
        labels[start] = cluster
        while queue:
            point = queue.popleft()
            if not core[point]:
                continue
            for neighbor in neighbors[point]:
                if labels[neighbor] == NOISE:
                    labels[neighbor] = cluster
                    queue.append(int(neighbor))
        cluster += 1

    return DBSCANResult(labels=labels, core_mask=core)
