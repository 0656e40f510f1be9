"""Category prevalence by rank threshold (Section 4.2.3 / Figures 3, 14).

"for a range of rank thresholds, we estimate the percentage of domains
in the top N with each category label.  We plot the median and 25–75 %
quartiles among 45 countries at each rank threshold."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from ..core.dataset import BrowsingDataset
from ..core.types import Metric, Month, Platform
from ..stats.descriptive import Quartiles, quartiles

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
    labels: Mapping[str, str],
    platform: Platform,
    metric: Metric,
    month: Month,
    categories: tuple[str, ...] = FIGURE3_CATEGORIES,
    thresholds: tuple[int, ...] = DEFAULT_THRESHOLDS,
    countries: tuple[str, ...] | None = None,
) -> list[PrevalenceCurve]:
    """Compute prevalence curves for the given categories.

    One pass per country computes cumulative category counts along the
    list, so the whole threshold sweep costs O(list length).
    """
    lists = dataset.select(platform, metric, month, countries)
    swept = tuple(sorted(set(thresholds)))
    # per category -> per threshold -> list of per-country shares
    samples: dict[str, dict[int, list[float]]] = {
        c: {t: [] for t in swept} for c in categories
    }
    for ranked in lists.values():
        running: dict[str, int] = {}
        sweep_iter = iter(swept)
        next_threshold = next(sweep_iter, None)
        for position, site in enumerate(ranked.sites, start=1):
            category = labels.get(site, "Unknown")
            running[category] = running.get(category, 0) + 1
            while next_threshold is not None and position == next_threshold:
                for c in categories:
                    samples[c][next_threshold].append(
                        running.get(c, 0) / next_threshold
                    )
                next_threshold = next(sweep_iter, None)
            if next_threshold is None:
                break
        # Thresholds beyond the list length use the full-list share: the
        # walk reached none of them, so it ran to the end and ``running``
        # holds the whole list's counts.
        length = len(ranked)
        for t in swept:
            if t > length:
                for c in categories:
                    samples[c][t].append(running.get(c, 0) / max(length, 1))

    curves = []
    for category in categories:
        points = tuple(
            PrevalencePoint(t, quartiles(samples[category][t]))
            for t in swept
            if samples[category][t]
        )
        curves.append(PrevalenceCurve(category, platform, metric, points))
    return curves


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
