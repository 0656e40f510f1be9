"""Descriptive statistics used when aggregating per-country results.

The paper reports most statistics as "the median and 25–75 % quartiles
among the 45 countries".  These helpers implement exactly that
aggregation, plus the average-rank transform shared by Spearman and the
tie-aware tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def median(values: Iterable[float]) -> float:
    """Sample median (average of the two central order statistics)."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("median of empty sequence")
    n = len(data)
    mid = n // 2
    if n % 2:
        return data[mid]
    return (data[mid - 1] + data[mid]) / 2.0


def quantile(values: Iterable[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default convention)."""
    data = sorted(float(v) for v in values)
    if not data:
        raise ValueError("quantile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if len(data) == 1:
        return data[0]
    pos = q * (len(data) - 1)
    lo = int(np.floor(pos))
    hi = int(np.ceil(pos))
    frac = pos - lo
    return data[lo] * (1.0 - frac) + data[hi] * frac


@dataclass(frozen=True)
class Quartiles:
    """Median plus the 25–75 % band the paper reports everywhere."""

    q25: float
    median: float
    q75: float

    @property
    def iqr(self) -> float:
        return self.q75 - self.q25

    def __contains__(self, value: float) -> bool:
        return self.q25 <= value <= self.q75


def quartiles(values: Iterable[float]) -> Quartiles:
    """25 %, 50 % and 75 % quantiles of ``values``."""
    data = [float(v) for v in values]
    return Quartiles(
        q25=quantile(data, 0.25),
        median=quantile(data, 0.50),
        q75=quantile(data, 0.75),
    )


def rankdata(values: Sequence[float]) -> np.ndarray:
    """Average ranks (1-indexed) with ties sharing their mean rank.

    The standard "fractional" ranking used by Spearman's rho.  Ties are
    runs of equal neighbours in the stable sort (NaN equals nothing, so
    each NaN keeps its own rank); the run from sorted position ``i`` to
    ``j`` shares ``(i + j + 2) / 2``, which is exact in float64.
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1:
        raise ValueError("rankdata expects a 1-D sequence")
    order = np.argsort(arr, kind="mergesort")
    sorted_vals = arr[order]
    run_starts = np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1]))
    starts = np.flatnonzero(run_starts)
    ends = np.append(starts[1:], len(arr)) - 1
    ranks = np.empty(len(arr), dtype=float)
    ranks[order] = np.repeat((starts + ends + 2) / 2.0, ends - starts + 1)
    return ranks


def mean(values: Iterable[float]) -> float:
    data = [float(v) for v in values]
    if not data:
        raise ValueError("mean of empty sequence")
    return sum(data) / len(data)
