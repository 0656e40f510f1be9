"""Fisher's exact test and the binomial proportion comparison of §4.3.

Section 4.3: "We then compare traffic volumes per category across
desktop and mobile by computing Fisher's binomial proportion test
(p = 0.05) with a Bonferroni correction."

The traffic volumes being compared are *weighted shares* (fractions of
modelled traffic), so to apply a count-based exact test we convert each
share into an effective success count out of an effective sample size
(:func:`proportion_test_batch`), mirroring how one tests two
proportions with Fisher's method.

:func:`fisher_exact_batch` prices the whole Figure 4 grid at once
(DESIGN.md, "Stats kernels").  Repeated tables are evaluated once;
tables sharing a margin ``(total, row1, col1)`` share one log-pmf and
one ``np.exp`` of it; and that pmf is evaluated only on the window
where ``np.exp`` of it is not 0.0, found by binary search out from the
mode (the pmf is log-concave).  Terms left out are exact zeros, which
the sequential ``cumsum`` of a p-value passes through unchanged, so the
p-values are bitwise those of evaluating each table's full support on
its own.  That one-table kernel and the scalar ``math.lgamma``
definition are test oracles (``tests/oracles/stats.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..obs import span as obs_span

#: Tolerance for "at most as likely as observed", matching scipy.
_PMF_EPS = 1e-7

#: ``np.exp(x)`` is exactly 0.0 for every ``x`` below about -745.13
#: (half the smallest subnormal rounds to zero); pmf terms whose log
#: lies below this cutoff are left out of a margin's window.
_EXP_UNDERFLOW = -746.0

#: Largest (tables × window) block summed in one pass (bounds the
#: transient arrays when many tables share one margin).
_CHUNK_TERMS = 1 << 18

#: Cumulative log-factorial table: ``_LOG_FACTORIALS[i] == lgamma(i + 1)``.
#: Grown on demand (one table serves every ``effective_n``) and built
#: with :func:`math.lgamma`, as the scalar oracle computes it.  Growth
#: replaces the array atomically, so concurrent readers at worst
#: duplicate work.
_LOG_FACTORIALS = np.zeros(1)


def _log_factorials(n: int) -> np.ndarray:
    """The shared table, grown to cover ``0! .. n!``."""
    global _LOG_FACTORIALS
    table = _LOG_FACTORIALS
    if len(table) <= n:
        grown = np.concatenate((table, np.fromiter(
            map(math.lgamma, range(len(table) + 1, n + 2)), float,
        )))
        _LOG_FACTORIALS = table = grown
    return table


def _log_pmf(lf: np.ndarray, k, total, row1, col1):
    """Hypergeometric log P[X = k] from the log-factorial table.

    The association order is fixed — every caller, and the oracles,
    combine the same entries the same way — so a term's value does not
    depend on which vector it was computed in.
    """
    log_binom_col = (lf[col1] - lf[k]) - lf[col1 - k]
    log_binom_rest = (lf[total - col1] - lf[row1 - k]) - lf[total - col1 - row1 + k]
    log_binom_total = (lf[total] - lf[row1]) - lf[total - row1]
    return (log_binom_col + log_binom_rest) - log_binom_total


def _support_log_pmf(lf: np.ndarray, lo: int, hi: int, total: int, row1: int, col1: int):
    """:func:`_log_pmf` at ``k = lo..hi`` of one margin, read from
    contiguous (and reversed) slices of the table instead of gathers."""
    rest = total - col1 - row1
    log_binom_col = (lf[col1] - lf[lo:hi + 1]) - lf[col1 - hi:col1 - lo + 1][::-1]
    log_binom_rest = (lf[total - col1] - lf[row1 - hi:row1 - lo + 1][::-1]) - lf[rest + lo:rest + hi + 1]
    log_binom_total = (lf[total] - lf[row1]) - lf[total - row1]
    return (log_binom_col + log_binom_rest) - log_binom_total


def _windows(lf, total, row1, col1):
    """Per margin, the ``[first, last]`` support range outside which
    every log-pmf is below :data:`_EXP_UNDERFLOW`.

    Two vectorised binary searches out from the mode, one per tail.  The
    log-pmf is concave in ``k``, so each tail is monotone; near the
    cutoff it moves by far more per step than the table's rounding
    error, so the computed values are monotone there too.
    """
    lo = np.maximum(0, row1 + col1 - total)
    hi = np.minimum(row1, col1)
    mode = np.clip((row1 + 1) * (col1 + 1) // (total + 2), lo, hi)

    def inside(k, a, b):
        # Converged margins (a == b) keep their bound.
        return (_log_pmf(lf, k, total, row1, col1) >= _EXP_UNDERFLOW) | (a >= b)

    # Smallest k in [lo, mode] inside, and largest k in [mode, hi].
    a, b = lo, mode
    while np.any(a < b):
        mid = (a + b) // 2
        keep = inside(mid, a, b)
        b = np.where(keep, mid, b)
        a = np.where(keep, a, mid + 1)
    first = a
    a, b = mode, hi
    while np.any(a < b):
        mid = (a + b + 1) // 2
        keep = inside(mid, a, b)
        a = np.where(keep, mid, a)
        b = np.where(keep, b, mid - 1)
    return first, a


def fisher_exact_batch(tables: Sequence[object] | np.ndarray) -> np.ndarray:
    """Two-sided Fisher exact p-values for many 2×2 tables at once.

    ``tables`` is anything ``np.asarray`` shapes to ``(m, 2, 2)`` or
    ``(m, 4)`` (rows ``a, b, c, d``).  A p-value sums the probabilities
    of every table with the observed margins that is at most as likely
    as the observed one (scipy's ``fisher_exact(..., 'two-sided')``).
    Duplicate tables — ubiquitous in the Figure 4 grid, where absent
    categories yield ``(0, n, 0, n)`` cells — are evaluated once, and
    tables sharing a margin share its pmf.  Emits a
    ``stats.fisher_batch`` span with cell, unique-table, margin and
    evaluated-term counts.
    """
    arr = np.asarray(tables, dtype=np.int64)
    if arr.ndim == 3 and arr.shape[1:] == (2, 2):
        arr = arr.reshape(len(arr), 4)
    if arr.ndim != 2 or arr.shape[1] != 4:
        raise ValueError("tables must have shape (m, 2, 2) or (m, 4)")
    if len(arr) == 0:
        return np.empty(0, dtype=float)
    if np.any(arr < 0):
        raise ValueError("table entries must be non-negative")
    with obs_span("stats.fisher_batch", cells=len(arr)) as sp:
        unique, inverse = np.unique(arr, axis=0, return_inverse=True)
        a = unique[:, 0]
        row1 = a + unique[:, 1]
        col1 = a + unique[:, 2]
        total = row1 + unique[:, 2] + unique[:, 3]
        margins, margin_of = np.unique(
            np.stack((total, row1, col1), axis=1), axis=0, return_inverse=True,
        )
        margin_of = margin_of.ravel()
        m_total, m_row1, m_col1 = margins.T
        lf = _log_factorials(int(m_total.max()))
        first, last = _windows(lf, m_total, m_row1, m_col1)
        sp.set("unique_tables", len(unique)).set("margins", len(margins))
        sp.set("evaluated", int((last - first + 1).sum()))
        threshold = _log_pmf(lf, a, total, row1, col1) + math.log1p(_PMF_EPS)
        by_margin = np.argsort(margin_of, kind="stable")
        bounds = np.concatenate(([0], np.cumsum(np.bincount(
            margin_of, minlength=len(margins)))))
        p_unique = np.empty(len(unique))
        for g, (t, r, c, lo, hi) in enumerate(zip(*(
            x.tolist() for x in (m_total, m_row1, m_col1, first, last)
        ))):
            logp = _support_log_pmf(lf, lo, hi, t, r, c)
            pmf = np.exp(logp)
            tables_of = by_margin[bounds[g]:bounds[g + 1]]
            step = max(1, _CHUNK_TERMS // (hi - lo + 1))
            for i in range(0, len(tables_of), step):
                members = tables_of[i:i + step]
                # Terms above the threshold become exact zeros, which
                # a sequential cumsum passes through unchanged.
                kept = np.where(logp <= threshold[members, None], pmf, 0.0)
                p_unique[members] = np.cumsum(kept, axis=1)[:, -1]
    return np.minimum(p_unique, 1.0)[inverse.ravel()]


@dataclass(frozen=True)
class ProportionTestResult:
    """Outcome of comparing two proportions."""

    p_value: float
    proportion_a: float
    proportion_b: float

    @property
    def difference(self) -> float:
        return self.proportion_a - self.proportion_b

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value <= alpha


def proportion_test_batch(
    shares_a: Sequence[float] | np.ndarray,
    shares_b: Sequence[float] | np.ndarray,
    effective_n: int = 100_000,
) -> list[ProportionTestResult]:
    """Fisher-exact comparison of paired traffic *shares*.

    ``shares_a`` and ``shares_b`` hold fractions in [0, 1] (e.g. the
    share of Android vs Windows traffic that a category captures).
    Each becomes a success count out of ``effective_n`` trials, rounded
    half up (``floor(x + 0.5)``: ``round`` would round an exact half to
    even and flip the count on the parity of its neighbour).  The
    effective sample size sets the test's power, standing in for the
    (enormous, unpublished) underlying event counts in the telemetry.
    The whole Figure 4 category×country grid is one call, and repeated
    cells (zero shares above all) are priced once.
    """
    a_shares = np.asarray(shares_a, dtype=float)
    b_shares = np.asarray(shares_b, dtype=float)
    if a_shares.ndim != 1 or a_shares.shape != b_shares.shape:
        raise ValueError("shares_a and shares_b must be equal-length vectors")
    for name, shares in (("shares_a", a_shares), ("shares_b", b_shares)):
        if np.any(shares < 0.0) or np.any(shares > 1.0):
            raise ValueError(f"every {name} entry must be in [0, 1]")
    if effective_n < 1:
        raise ValueError("effective_n must be positive")
    a = np.floor(a_shares * effective_n + 0.5).astype(np.int64)
    b = np.floor(b_shares * effective_n + 0.5).astype(np.int64)
    tables = np.stack(
        [a, effective_n - a, b, effective_n - b], axis=1
    )
    p_values = fisher_exact_batch(tables)
    return [
        ProportionTestResult(
            p_value=float(p), proportion_a=float(sa), proportion_b=float(sb)
        )
        for p, sa, sb in zip(p_values, a_shares, b_shares)
    ]


def normalized_difference(a: float, w: float) -> float:
    """The paper's platform-difference score (A − W) / max(A, W).

    "This formula expresses the difference in weighted traffic volume as
    a percentage of the larger value, with the sign representing which
    platform (Android or Windows) is more prevalent."  Ranges over
    [−1, 1]; 0 when both are zero.
    """
    if a < 0 or w < 0:
        raise ValueError("traffic volumes must be non-negative")
    larger = max(a, w)
    if larger == 0.0:
        return 0.0
    return (a - w) / larger
