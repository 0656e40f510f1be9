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
* :func:`fisher_exact` / :func:`proportion_test` — the two-sided Fisher
  test one ``k`` at a time through :func:`math.lgamma`, the executable
  definition (matches scipy); :func:`repro.stats.fisher_exact_batch`
  agrees to a few ulp (``np.exp`` vs ``math.exp``).
* :func:`fisher_exact_batch_reference` — the earlier one-table-at-a-time
  kernel (each table's full support in one numpy pass);
  :func:`repro.stats.fisher_exact_batch` (margin-shared, windowed
  pmf) is bitwise equal to it.

Each validates its inputs exactly as the kernel does, so error cases
agree too.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Sequence

import numpy as np

from repro.stats import NOISE, DBSCANResult, ProportionTestResult, SilhouetteReport
from repro.stats.dbscan import _validated as _dbscan_validated
from repro.stats.fisher import _PMF_EPS, _log_factorials
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


def _log_binom(n: int, k: int) -> float:
    """log(n choose k) via lgamma, stable for large n."""
    if k < 0 or k > n:
        return float("-inf")
    return (
        math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
    )


def hypergeom_logpmf(k: int, total: int, successes: int, draws: int) -> float:
    """log P[X = k] for X ~ Hypergeometric(total, successes, draws)."""
    return (
        _log_binom(successes, k)
        + _log_binom(total - successes, draws - k)
        - _log_binom(total, draws)
    )


def fisher_exact(table: tuple[tuple[int, int], tuple[int, int]]) -> float:
    """Two-sided Fisher exact test p-value for a 2×2 contingency table.

    Sums the probabilities of all tables with the same margins that are
    at most as likely as the observed one (with scipy's tolerance).
    Matches ``scipy.stats.fisher_exact(..., 'two-sided')``.
    """
    (a, b), (c, d) = table
    for v in (a, b, c, d):
        if v < 0:
            raise ValueError("table entries must be non-negative")
    total = a + b + c + d
    if total == 0:
        return 1.0
    row1 = a + b
    col1 = a + c
    lo = max(0, row1 + col1 - total)
    hi = min(row1, col1)
    observed = hypergeom_logpmf(a, total, col1, row1)
    threshold = observed + math.log1p(_PMF_EPS)
    p = 0.0
    for k in range(lo, hi + 1):
        logp = hypergeom_logpmf(k, total, col1, row1)
        if logp <= threshold:
            p += math.exp(logp)
    return min(p, 1.0)


def proportion_test(
    share_a: float,
    share_b: float,
    effective_n: int = 100_000,
) -> ProportionTestResult:
    """One Fisher-exact comparison of two traffic shares, each a
    half-up rounded count out of ``effective_n``."""
    for name, share in (("share_a", share_a), ("share_b", share_b)):
        if not 0.0 <= share <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {share}")
    if effective_n < 1:
        raise ValueError("effective_n must be positive")
    a = int(math.floor(share_a * effective_n + 0.5))
    b = int(math.floor(share_b * effective_n + 0.5))
    p = fisher_exact(((a, effective_n - a), (b, effective_n - b)))
    return ProportionTestResult(p_value=p, proportion_a=share_a, proportion_b=share_b)


def fisher_exact_one_reference(a: int, b: int, c: int, d: int) -> float:
    """One table's p-value from its whole pmf support in one numpy pass."""
    total = a + b + c + d
    if total == 0:
        return 1.0
    row1 = a + b
    col1 = a + c
    lo = max(0, row1 + col1 - total)
    hi = min(row1, col1)
    lf = _log_factorials(total)
    k = np.arange(lo, hi + 1)
    # Same operands, same association order as the scalar _log_binom
    # chain, so every log-pmf below is bit-identical to it.
    log_binom_col = (lf[col1] - lf[k]) - lf[col1 - k]
    log_binom_rest = (lf[total - col1] - lf[row1 - k]) - lf[total - col1 - row1 + k]
    log_binom_total = (lf[total] - lf[row1]) - lf[total - row1]
    logp = (log_binom_col + log_binom_rest) - log_binom_total
    threshold = logp[a - lo] + math.log1p(_PMF_EPS)
    masked = np.exp(logp[logp <= threshold])
    # cumsum accumulates sequentially in k order like the scalar loop
    # (np.sum's pairwise reduction would associate differently).
    p = float(np.cumsum(masked)[-1]) if len(masked) else 0.0
    return min(p, 1.0)


def fisher_exact_batch_reference(tables) -> np.ndarray:
    """:func:`fisher_exact_one_reference` over an ``(m, 4)`` table array."""
    arr = np.asarray(tables, dtype=np.int64).reshape(-1, 4)
    return np.array(
        [fisher_exact_one_reference(*row) for row in arr.tolist()], dtype=float
    )
