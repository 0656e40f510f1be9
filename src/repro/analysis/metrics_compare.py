"""Page loads vs time on page (Section 4.4 / Figures 5, 16).

Two analyses:

* **overlap** — per-country top-10K intersection and within-intersection
  Spearman between the two popularity metrics ("the median intersection
  is 65 % of sites for desktop and 74 % for mobile ... Spearman's
  correlation coefficient is 0.65 for desktop and 0.69 for mobile");
* **leaning** — classify sites into loads-leaning / time-leaning /
  other by the ratio of their estimated loads share to time share
  (highest and lowest 20 % of ratios), then compare the category
  composition of the three classes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..core.dataset import BrowsingDataset
from ..core.rankedlist import RankedList
from ..core.types import Metric, Month, Platform
from ..stats.descriptive import Quartiles, quartiles
from ..stats.kernels import rank_pairs_ids
from ..stats.spearman import spearman_from_lists, spearman_rho
from .weighting import category_shares, per_site_share


@dataclass(frozen=True)
class MetricOverlap:
    """Per-platform metric agreement across countries."""

    platform: Platform
    intersections: dict[str, float]       # country -> % intersection
    spearmans: dict[str, float]           # country -> rho within intersection
    intersection_stats: Quartiles
    spearman_stats: Quartiles


def metric_overlap(
    dataset: BrowsingDataset,
    platform: Platform,
    month: Month,
    top_n: int = 10_000,
    countries: tuple[str, ...] | None = None,
) -> MetricOverlap:
    """Intersection % and Spearman between loads and time lists.

    One :func:`repro.stats.kernels.rank_pairs_ids` pass per country
    yields both statistics from the interned lists.
    """
    loads = dataset.select(platform, Metric.PAGE_LOADS, month, countries)
    time = dataset.select(platform, Metric.TIME_ON_PAGE, month, countries)
    shared = sorted(set(loads) & set(time))
    if not shared:
        raise ValueError("no countries with both metrics")
    vocab = dataset.vocabulary()
    intersections: dict[str, float] = {}
    spearmans: dict[str, float] = {}
    for country in shared:
        ids_a = loads[country].ids(vocab)
        ids_b = time[country].ids(vocab)
        xs, ys = rank_pairs_ids(ids_a, ids_b, depth=top_n)
        denom = min(top_n, len(ids_a), len(ids_b))
        intersections[country] = len(xs) / denom if denom else 0.0
        rho = spearman_rho(xs, ys) if len(xs) >= 2 else float("nan")
        if not math.isnan(rho):
            spearmans[country] = rho
    return MetricOverlap(
        platform=platform,
        intersections=intersections,
        spearmans=spearmans,
        intersection_stats=quartiles(intersections.values()),
        spearman_stats=quartiles(spearmans.values()),
    )


def category_overlap(
    loads_list: RankedList,
    time_list: RankedList,
    labels: Mapping[str, str],
    category: str,
    top_n: int = 10_000,
) -> tuple[float, float]:
    """(intersection %, Spearman) restricted to one category's sites.

    Section 4.4: "Correlation values remain in the same range within
    website categories".
    """
    a = loads_list.top(top_n).filter(lambda s: labels.get(s, "Unknown") == category)
    b = time_list.top(top_n).filter(lambda s: labels.get(s, "Unknown") == category)
    if len(a) == 0 or len(b) == 0:
        return 0.0, float("nan")
    return a.percent_intersection(b), spearman_from_lists(a, b)


LOADS_LEANING = "loads-leaning"
TIME_LEANING = "time-leaning"
OTHER = "other"


@dataclass(frozen=True)
class LeaningClassification:
    """Per-site leaning classes for one country."""

    country: str
    classes: dict[str, str]               # site -> class label

    def sites_in(self, leaning: str) -> list[str]:
        return [s for s, c in self.classes.items() if c == leaning]


def classify_leaning(
    loads_list: RankedList,
    time_list: RankedList,
    dataset: BrowsingDataset,
    platform: Platform,
    country: str,
    top_n: int = 10_000,
    tail_fraction: float = 0.20,
) -> LeaningClassification:
    """Classify the union of both top-N lists by loads/time share ratio.

    Sites absent from one list get that metric's smallest modelled share
    (the rank just past the list end), which pushes them toward the
    extreme ratios — exactly the intuition that a site only ranked by
    time is time-leaning.
    """
    if not 0.0 < tail_fraction < 0.5:
        raise ValueError("tail_fraction must be in (0, 0.5)")
    dist_loads = dataset.distribution(platform, Metric.PAGE_LOADS)
    dist_time = dataset.distribution(platform, Metric.TIME_ON_PAGE)
    loads_share = per_site_share(loads_list.top(top_n), dist_loads)
    time_share = per_site_share(time_list.top(top_n), dist_time)
    floor_loads = dist_loads.share_of_rank(min(top_n, len(loads_list)) + 1)
    floor_time = dist_time.share_of_rank(min(top_n, len(time_list)) + 1)

    ratios: dict[str, float] = {}
    for site in set(loads_share) | set(time_share):
        num = loads_share.get(site, floor_loads)
        den = time_share.get(site, floor_time)
        ratios[site] = num / den if den > 0 else float("inf")

    ordered = sorted(ratios.items(), key=lambda kv: kv[1])
    n = len(ordered)
    k = int(n * tail_fraction)
    classes: dict[str, str] = {}
    for i, (site, _) in enumerate(ordered):
        if i < k:
            classes[site] = TIME_LEANING
        elif i >= n - k:
            classes[site] = LOADS_LEANING
        else:
            classes[site] = OTHER
    return LeaningClassification(country, classes)


@dataclass(frozen=True)
class LeaningComposition:
    """Figure 5: category share within each leaning class, across countries."""

    platform: Platform
    shares: dict[str, dict[str, Quartiles]]   # class -> category -> quartiles

    def overrepresented_in(self, leaning: str, versus: str = OTHER,
                           min_share: float = 0.0) -> list[str]:
        """Categories with a higher median share in ``leaning`` than ``versus``."""
        out = []
        for category, stats in self.shares[leaning].items():
            baseline = self.shares[versus].get(category)
            if stats.median >= min_share and (
                baseline is None or stats.median > baseline.median
            ):
                out.append(category)
        return sorted(
            out, key=lambda c: -self.shares[leaning][c].median
        )


def leaning_composition(
    dataset: BrowsingDataset,
    labels: Mapping[str, str],
    platform: Platform,
    month: Month,
    top_n: int = 10_000,
    countries: tuple[str, ...] | None = None,
) -> LeaningComposition:
    """Compute Figure 5 (desktop) or Figure 16 (mobile)."""
    loads = dataset.select(platform, Metric.PAGE_LOADS, month, countries)
    time = dataset.select(platform, Metric.TIME_ON_PAGE, month, countries)
    shared = sorted(set(loads) & set(time))
    per_class_samples: dict[str, dict[str, list[float]]] = {
        LOADS_LEANING: {}, TIME_LEANING: {}, OTHER: {},
    }
    for country in shared:
        classification = classify_leaning(
            loads[country], time[country], dataset, platform, country, top_n
        )
        for leaning, samples in per_class_samples.items():
            sites = classification.sites_in(leaning)
            for category, share in category_shares(sites, labels).items():
                samples.setdefault(category, []).append(share)
    shares = {
        leaning: {
            category: quartiles(samples + [0.0] * (len(shared) - len(samples)))
            for category, samples in categories.items()
        }
        for leaning, categories in per_class_samples.items()
    }
    return LeaningComposition(platform, shares)
