"""Traffic-distribution curves: what fraction of traffic the top-N sites get.

Section 4.1.1: Chrome provided global traffic-volume distribution data —
the number of websites accounting for varying percentiles of traffic —
separately from the ranked lists.  The paper then re-uses these curves as
*weights* whenever it needs to model traffic per rank position: weighted
category counts (Section 4.2.2), the desktop-vs-mobile volume comparison
(Section 4.3), the loads-vs-time ratio (Section 4.4), and the
traffic-weighted RBO (Section 5.3.1).

:class:`TrafficDistribution` represents one such curve as a monotone
cumulative-share function of rank, constructed from anchor points
``(rank, cumulative share)`` and interpolated monotonically in
log10(rank) space.  The anchors we ship (:mod:`repro.world.profiles`)
are the concentration numbers the paper reports.

The interpolant is PCHIP (Fritsch–Carlson monotone cubic Hermite), ported
from ``scipy.interpolate.PchipInterpolator`` in scipy's floating-point
operation order so that every value is bit-identical to it; the tests
keep scipy as the oracle.  Numpy is the only runtime dependency.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import DistributionError


def _edge_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point end slope, kept shape-preserving (scipy's
    ``PchipInterpolator._edge_case``)."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """PCHIP derivatives at the knots (scipy's ``_find_derivatives``).

    An interior slope is the weighted harmonic mean of the neighbouring
    secants, or zero where they change sign or one is flat; two knots
    interpolate linearly.
    """
    h = x[1:] - x[:-1]
    m = (y[1:] - y[:-1]) / h
    if len(y) == 2:
        return np.array([m[0], m[0]])
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0) | (m[:-1] == 0)
    w1 = 2 * h[1:] + h[:-1]
    w2 = h[1:] + 2 * h[:-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
    d = np.zeros_like(y)
    d[1:-1][~flat] = 1.0 / whmean[~flat]
    d[0] = _edge_slope(h[0], h[1], m[0], m[1])
    d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def hermite_coefficients(x: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Per-interval cubic coefficients, highest power first, shape
    ``(4, len(x) - 1)`` (scipy's ``CubicHermiteSpline``)."""
    h = np.diff(x)
    slope = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2 * slope) / h
    return np.stack((t / h, (slope - d[:-1]) / h - t, d[:-1], y[:-1]))


def piecewise_cubic(x: np.ndarray, coeffs: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Evaluate the piecewise cubic at points inside ``[x[0], x[-1]]``.

    Intervals are closed on the left (the last also on the right), and
    each value is the sum scipy's ``PPoly`` computes,
    ``c0 + c1*s + c2*s**2 + c3*s**3`` added in that order with the powers
    built by repeated multiplication.
    """
    i = np.searchsorted(x, at, side="right") - 1
    s = at - x[:-1].take(i, mode="clip")
    c3, c2, c1, c0 = (row.take(i, mode="clip") for row in coeffs)
    res = 0.0 + c0
    res += c1 * s
    z = s * s
    res += c2 * z
    z *= s
    res += c3 * z
    return res


class TrafficDistribution:
    """A monotone cumulative traffic-share curve over site ranks.

    Parameters
    ----------
    anchors:
        ``(rank, cumulative_share)`` pairs with strictly increasing ranks
        and strictly increasing shares in (0, 1].  Rank 1 must be present
        (the share of the single top site).
    total_sites:
        The rank at which the curve is considered to reach its final
        cumulative share; beyond it, the remaining share is spread over an
        unmodelled long tail.
    """

    __slots__ = ("_anchors", "_total_sites", "_knots", "_coeffs", "_log_last", "_last_share")

    def __init__(self, anchors: Iterable[tuple[float, float]], total_sites: int = 1_000_000) -> None:
        pts = sorted((float(r), float(s)) for r, s in anchors)
        if len(pts) < 2:
            raise DistributionError("need at least two anchor points")
        ranks = [r for r, _ in pts]
        shares = [s for _, s in pts]
        if ranks[0] != 1.0:
            raise DistributionError("anchors must include rank 1")
        if any(b <= a for a, b in zip(ranks, ranks[1:])):
            raise DistributionError("anchor ranks must be strictly increasing")
        if any(b <= a for a, b in zip(shares, shares[1:])):
            raise DistributionError("anchor shares must be strictly increasing")
        if shares[0] <= 0.0 or shares[-1] > 1.0:
            raise DistributionError("anchor shares must lie in (0, 1]")
        if total_sites < ranks[-1]:
            raise DistributionError("total_sites smaller than the largest anchor rank")
        self._anchors = tuple(pts)
        self._total_sites = int(total_sites)
        log_ranks = np.log10(np.asarray(ranks))
        y = np.asarray(shares)
        self._knots = log_ranks
        self._coeffs = hermite_coefficients(log_ranks, y, pchip_slopes(log_ranks, y))
        self._log_last = float(log_ranks[-1])
        self._last_share = shares[-1]

    # -- properties ------------------------------------------------------------------

    @property
    def anchors(self) -> tuple[tuple[float, float], ...]:
        return self._anchors

    @property
    def total_sites(self) -> int:
        return self._total_sites

    # -- evaluation ------------------------------------------------------------------

    def cumulative_share(self, rank: float) -> float:
        """Fraction of all traffic captured by the top ``rank`` sites."""
        return float(self.cumulative_shares(np.asarray([rank]))[0])

    def cumulative_shares(self, ranks: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`cumulative_share`."""
        r = np.asarray(ranks, dtype=float)
        if np.any(r < 1.0):
            raise DistributionError("rank must be >= 1")
        log_r = np.log10(np.minimum(r, float(self._total_sites)))
        out = np.empty_like(log_r)
        inside = log_r <= self._log_last
        out[inside] = piecewise_cubic(self._knots, self._coeffs, log_r[inside])
        if np.any(~inside):
            # Beyond the last anchor the remaining share approaches the
            # anchor asymptotically: spread it log-linearly up to the
            # total-site count, capped at 1.
            log_total = np.log10(float(self._total_sites))
            if log_total > self._log_last:
                frac = (log_r[~inside] - self._log_last) / (log_total - self._log_last)
            else:
                frac = np.ones(int(np.count_nonzero(~inside)))
            out[~inside] = self._last_share + (1.0 - self._last_share) * np.minimum(frac, 1.0)
        return np.clip(out, 0.0, 1.0)

    def share_of_rank(self, rank: int) -> float:
        """Traffic share of the individual site at 1-indexed ``rank``."""
        if rank < 1:
            raise DistributionError("rank must be >= 1")
        if rank == 1:
            return self.cumulative_share(1)
        return self.cumulative_share(rank) - self.cumulative_share(rank - 1)

    def weights(self, n: int) -> np.ndarray:
        """Per-rank traffic shares for ranks 1..n, as a length-n array.

        These are the weights used for weighted category counts and for
        the traffic-weighted RBO.  The array is non-negative and its sum
        equals ``cumulative_share(n)``.
        """
        if n < 1:
            raise DistributionError("n must be >= 1")
        n = min(n, self._total_sites)
        cum = self.cumulative_shares(np.arange(1, n + 1, dtype=float))
        w = np.diff(np.concatenate(([0.0], cum)))
        # Monotone interpolation keeps cumulative shares non-decreasing,
        # but guard against tiny negative diffs from floating error.
        return np.maximum(w, 0.0)

    def normalized_weights(self, n: int) -> np.ndarray:
        """:meth:`weights` rescaled to sum to exactly 1 over the top n."""
        w = self.weights(n)
        total = w.sum()
        if total <= 0.0:
            raise DistributionError("degenerate distribution: zero total weight")
        return w / total

    def sites_for_share(self, share: float) -> int:
        """Smallest N such that the top-N sites capture ``share`` of traffic."""
        if not 0.0 < share <= 1.0:
            raise DistributionError("share must be in (0, 1]")
        lo, hi = 1, self._total_sites
        if self.cumulative_share(hi) < share:
            return self._total_sites
        while lo < hi:
            mid = (lo + hi) // 2
            if self.cumulative_share(mid) >= share:
                hi = mid
            else:
                lo = mid + 1
        return lo

    # -- serialisation -----------------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "anchors": [list(a) for a in self._anchors],
            "total_sites": self._total_sites,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "TrafficDistribution":
        return cls(
            [(r, s) for r, s in payload["anchors"]],
            total_sites=int(payload["total_sites"]),
        )

    def __repr__(self) -> str:
        head = self._anchors[0][1]
        return (
            f"TrafficDistribution(top1={head:.3f}, "
            f"anchors={len(self._anchors)}, total_sites={self._total_sites})"
        )


def concentration_table(
    dist: TrafficDistribution, ranks: Sequence[int]
) -> list[tuple[int, float]]:
    """Cumulative shares at the given ranks — the rows of Figure 1."""
    return [(int(r), dist.cumulative_share(r)) for r in ranks]
