"""Temporal stability of website popularity (Section 4.5).

Three measurements:

* adjacent-month intersection / Spearman per rank bucket (top 20, 100,
  10K), plus September against every later month;
* the December anomaly (lower similarity to both its neighbours, most
  pronounced for time on Windows);
* stability of the category distribution over time (Education drops and
  Ecommerce rises in December).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dataset import BrowsingDataset
from ..core.types import Metric, Month, Platform
from ..stats.descriptive import Quartiles, quartiles
from ..stats.kernels import rank_pairs_ids
from ..stats.spearman import spearman_rho
from .weighting import CategoryCodes, Labels, share_by_category

#: Rank buckets used throughout Section 4.5.
DEFAULT_BUCKETS: tuple[int, ...] = (20, 100, 10_000)


@dataclass(frozen=True)
class MonthPairSimilarity:
    """List agreement between two months, per rank bucket."""

    platform: Platform
    metric: Metric
    month_a: Month
    month_b: Month
    bucket: int
    intersection: Quartiles
    spearman: Quartiles


def month_pair_similarity(
    dataset: BrowsingDataset,
    platform: Platform,
    metric: Metric,
    month_a: Month,
    month_b: Month,
    bucket: int,
    countries: tuple[str, ...] | None = None,
) -> MonthPairSimilarity:
    """Intersection/Spearman between two months, aggregated over countries.

    Per country, one :func:`repro.stats.kernels.rank_pairs_ids` pass
    over the interned lists yields both statistics — the intersection
    size (the pair count) and the Spearman input — without building
    truncated lists or rank dicts.
    """
    lists_a = dataset.select(platform, metric, month_a, countries)
    lists_b = dataset.select(platform, metric, month_b, countries)
    shared = sorted(set(lists_a) & set(lists_b))
    if not shared:
        raise ValueError(f"no countries with both {month_a} and {month_b}")
    vocab = dataset.vocabulary()
    intersections = []
    rhos = []
    for country in shared:
        ids_a = lists_a[country].ids(vocab)
        ids_b = lists_b[country].ids(vocab)
        xs, ys = rank_pairs_ids(ids_a, ids_b, depth=bucket)
        denom = min(bucket, len(ids_a), len(ids_b))
        intersections.append(len(xs) / denom if denom else 0.0)
        rho = spearman_rho(xs, ys) if len(xs) >= 2 else float("nan")
        if rho == rho:  # not NaN
            rhos.append(rho)
    return MonthPairSimilarity(
        platform, metric, month_a, month_b, bucket,
        quartiles(intersections), quartiles(rhos or [float("nan")]),
    )


def adjacent_month_series(
    dataset: BrowsingDataset,
    platform: Platform,
    metric: Metric,
    bucket: int,
    countries: tuple[str, ...] | None = None,
) -> list[MonthPairSimilarity]:
    """Similarity for every adjacent month pair in the dataset."""
    months = dataset.months
    return [
        month_pair_similarity(dataset, platform, metric, a, b, bucket, countries)
        for a, b in zip(months, months[1:])
    ]


def anchored_series(
    dataset: BrowsingDataset,
    platform: Platform,
    metric: Metric,
    bucket: int,
    anchor: Month | None = None,
    countries: tuple[str, ...] | None = None,
) -> list[MonthPairSimilarity]:
    """The anchor month (default: the first) against every later month."""
    months = dataset.months
    anchor = anchor or months[0]
    return [
        month_pair_similarity(dataset, platform, metric, anchor, m, bucket, countries)
        for m in months
        if m > anchor
    ]


@dataclass(frozen=True)
class DecemberAnomaly:
    """How much December stands out from the other adjacent pairs."""

    platform: Platform
    metric: Metric
    bucket: int
    december_intersection: float        # median over the pairs touching December
    other_intersection: float           # median over the remaining adjacent pairs

    @property
    def gap(self) -> float:
        return self.other_intersection - self.december_intersection

    @property
    def is_anomalous(self) -> bool:
        return self.gap > 0


def december_anomaly(
    dataset: BrowsingDataset,
    platform: Platform,
    metric: Metric,
    bucket: int = 10_000,
    countries: tuple[str, ...] | None = None,
) -> DecemberAnomaly:
    """Quantify December's dissimilarity from its neighbours."""
    series = adjacent_month_series(dataset, platform, metric, bucket, countries)
    touching = [
        s.intersection.median for s in series
        if s.month_a.is_december or s.month_b.is_december
    ]
    others = [
        s.intersection.median for s in series
        if not (s.month_a.is_december or s.month_b.is_december)
    ]
    if not touching or not others:
        raise ValueError("need both December-adjacent and other month pairs")
    return DecemberAnomaly(
        platform, metric, bucket,
        december_intersection=sorted(touching)[len(touching) // 2],
        other_intersection=sorted(others)[len(others) // 2],
    )


def category_share_over_months(
    dataset: BrowsingDataset,
    labels: Labels,
    platform: Platform,
    metric: Metric,
    category: str,
    top_n: int = 10_000,
    countries: tuple[str, ...] | None = None,
) -> dict[Month, float]:
    """Median share of top-N domains in ``category``, per month.

    Section 4.5: "Education drops from 8.4 % to 6.8 % of sites and
    Ecommerce rises from 5.0 % to 6.1 % for desktop top 10K time on
    page" in December.
    """
    labels = CategoryCodes.of(labels, dataset.vocabulary())
    out: dict[Month, float] = {}
    for month in dataset.months:
        lists = dataset.select(platform, metric, month, countries)
        if not lists:
            continue
        shares = [
            share_by_category(ranked, labels, top_n).get(category, 0.0)
            for ranked in lists.values()
        ]
        out[month] = quartiles(shares).median
    return out
