"""Kendall's tau-b rank correlation.

Not used by the paper directly, but provided as an alternative to
Spearman's rho for the metric/temporal agreement analyses (ablation
benchmarks compare the two — conclusions must not hinge on the choice
of rank-correlation coefficient).

:func:`kendall_tau` is Knight's O(n log n) algorithm: sort by (x, y),
count discordant pairs as merge-sort inversions in y, and adjust for
ties by run-length counting.  Every intermediate is an exact integer,
so the final quotient is bit-identical to the O(n²) pair loop from the
definition (the ``tests/oracles`` reference the hypothesis parity suite
in ``tests/stats/test_kendall.py`` compares against).
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..core.rankedlist import RankedList


def _sort_and_count(values: np.ndarray) -> tuple[np.ndarray, int]:
    """(sorted copy, inversion count) — pairs i < j with v[i] > v[j].

    Recursive merge count; the merge itself is two ``searchsorted``
    scatter assignments, so each level is vectorised.  Small blocks are
    counted by brute-force broadcasting, which bounds the recursion.
    """
    n = len(values)
    if n <= 64:
        inversions = int(
            np.count_nonzero(np.triu(values[:, None] > values[None, :], 1))
        )
        return np.sort(values, kind="stable"), inversions
    mid = n // 2
    left, left_inv = _sort_and_count(values[:mid])
    right, right_inv = _sort_and_count(values[mid:])
    # Left elements strictly above a right element, with the left block
    # entirely before the right block: each such pair is one inversion.
    pos_right = np.searchsorted(left, right, side="right")
    cross = left.size * right.size - int(pos_right.sum())
    merged = np.empty(n, dtype=values.dtype)
    pos_left = np.searchsorted(right, left, side="left")
    merged[np.arange(left.size) + pos_left] = left
    merged[np.arange(right.size) + pos_right] = right
    return merged, left_inv + right_inv + cross


def _tie_pairs(new_run: np.ndarray, n: int) -> int:
    """Σ s·(s−1)/2 over run lengths, given new-run flags for items 1..n−1."""
    starts = np.flatnonzero(new_run)
    sizes = np.diff(np.concatenate(([0], starts + 1, [n])))
    return int((sizes * (sizes - 1) // 2).sum())


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Kendall's tau-b (tie-adjusted), O(n log n) via Knight's algorithm.

    Returns ``nan`` for fewer than 2 pairs or when either input is
    constant.  Bit-identical to the quadratic definition (every
    count below is an exact integer and the final expression is the
    same) and matches ``scipy.stats.kendalltau``.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    n = len(x)
    if n < 2:
        return float("nan")
    xa = np.asarray(x)
    ya = np.asarray(y)
    order = np.lexsort((ya, xa))
    xs = xa[order]
    ys = ya[order]

    new_x = xs[1:] != xs[:-1]
    ties_x = _tie_pairs(new_x, n)
    joint = _tie_pairs(new_x | (ys[1:] != ys[:-1]), n)
    y_sorted = np.sort(ya, kind="stable")
    ties_y = _tie_pairs(y_sorted[1:] != y_sorted[:-1], n)

    # With x ascending and y ascending within equal-x runs, a strict
    # y-inversion can only involve two distinct x values and two
    # distinct y values — exactly the discordant pairs.
    _, discordant = _sort_and_count(ys)

    total = n * (n - 1) // 2
    denom = math.sqrt((total - ties_x) * (total - ties_y))
    if denom == 0.0:
        return float("nan")
    concordant_minus_discordant = (
        total - ties_x - ties_y + joint - 2 * discordant
    )
    return concordant_minus_discordant / denom


def kendall_from_lists(a: RankedList, b: RankedList) -> float:
    """Kendall's tau over the intersection of two ranked lists."""
    xs, ys = a.rank_pairs(b)
    if len(xs) < 2:
        return float("nan")
    return kendall_tau(xs, ys)
