"""Category prevalence by rank threshold (Section 4.2.3 / Figures 3, 14).

"for a range of rank thresholds, we estimate the percentage of domains
in the top N with each category label.  We plot the median and 25–75 %
quartiles among 45 countries at each rank threshold."
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.dataset import BrowsingDataset
from ..core.types import Metric, Month, Platform
from ..stats.descriptive import Quartiles, quartiles
from .weighting import CategoryCodes, Labels

#: The default rank-threshold sweep (log-spaced, like the paper's x-axis).
DEFAULT_THRESHOLDS: tuple[int, ...] = (
    10, 20, 30, 50, 100, 200, 300, 500, 1_000, 2_000, 3_000, 5_000, 10_000
)

#: The categories Figure 3 highlights.
FIGURE3_CATEGORIES: tuple[str, ...] = (
    "Video Streaming",
    "News & Media",
    "Business",
    "Technology",
    "Pornography",
    "Ecommerce",
)


@dataclass(frozen=True)
class PrevalencePoint:
    """Category share of top-N domains at one threshold (across countries)."""

    threshold: int
    stats: Quartiles


@dataclass(frozen=True)
class PrevalenceCurve:
    """One line of Figure 3: a category's share as rank threshold grows."""

    category: str
    platform: Platform
    metric: Metric
    points: tuple[PrevalencePoint, ...]

    def median_at(self, threshold: int) -> float:
        for point in self.points:
            if point.threshold == threshold:
                return point.stats.median
        raise KeyError(f"threshold {threshold} not swept")


def prevalence_by_rank(
    dataset: BrowsingDataset,
    labels: Labels,
    platform: Platform,
    metric: Metric,
    month: Month,
    categories: tuple[str, ...] = FIGURE3_CATEGORIES,
    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS,
    countries: tuple[str, ...] | None = None,
) -> list[PrevalenceCurve]:
    """Compute prevalence curves for the given categories.

    Per country, one cumulative count along the list of the sites in
    each category is read at every threshold; a threshold beyond the
    list's length uses the whole list's share.
    """
    table = CategoryCodes.of(labels, dataset.vocabulary())
    swept = np.array(sorted(set(thresholds)), dtype=np.int64)
    if len(swept) and swept[0] < 1:
        raise ValueError("rank thresholds must be positive")
    wanted = np.array([table.code(c) for c in categories], dtype=np.intp)
    per_country = []      # one (threshold, category) share array each
    for ranked in dataset.select(platform, metric, month, countries).values():
        codes = table.codes(ranked)
        length = len(codes)
        running = np.cumsum(codes[:, None] == wanted, axis=0)
        counts = (running[np.minimum(swept, length) - 1] if length
                  else np.zeros((len(swept), len(wanted)), dtype=np.int64))
        per_country.append(counts / np.where(swept > length, max(length, 1), swept)[:, None])

    shares = np.stack(per_country, axis=2) if per_country else None
    return [
        PrevalenceCurve(category, platform, metric, () if shares is None else tuple(
            PrevalencePoint(t, quartiles(shares[i, c].tolist()))
            for i, t in enumerate(swept.tolist())
        ))
        for c, category in enumerate(categories)
    ]


def head_tail_ratio(curve: PrevalenceCurve, head: int = 30, tail: int = 10_000) -> float:
    """Median share at the head divided by median share at the tail.

    >1 means the category is head-heavy (Video Streaming by time);
    <1 means it is disproportionately long-tail (Business).
    Returns ``inf`` if the tail share is zero.
    """
    head_share = curve.median_at(head)
    tail_share = curve.median_at(tail)
    if tail_share == 0.0:
        return float("inf")
    return head_share / tail_share
