"""Desktop vs mobile browsing differences (Section 4.3 / Figures 4, 15).

For each category, compare the traffic-weighted volume on Android vs
Windows per country with Fisher's binomial proportion test under a
Bonferroni correction, then summarise the normalised difference
(A − W) / max(A, W) across the countries where the difference is
significant.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.dataset import BrowsingDataset
from ..core.types import Metric, Month, Platform
from ..stats.correction import bonferroni
from ..stats.descriptive import median
from ..stats.fisher import normalized_difference, proportion_test_batch
from .weighting import CategoryCodes, Labels, weighted_volume_by_category


@dataclass(frozen=True)
class PlatformDifference:
    """One bar of Figure 4: a category's desktop-vs-mobile skew."""

    category: str
    median_score: float          # (A − W) / max(A, W) over significant countries
    n_significant: int           # countries where the difference is significant
    n_countries: int
    median_android: float
    median_windows: float

    @property
    def mobile_leaning(self) -> bool:
        return self.median_score > 0


def platform_differences(
    dataset: BrowsingDataset,
    labels: Labels,
    metric: Metric,
    month: Month,
    top_n: int = 10_000,
    alpha: float = 0.05,
    effective_n: int = 100_000,
    min_significant: int | None = None,
    countries: tuple[str, ...] | None = None,
) -> list[PlatformDifference]:
    """Compute Figure 4 (or 15, with metric=TIME_ON_PAGE).

    Per country: per-category weighted volumes on both platforms, a
    Fisher proportion test per category, Bonferroni-corrected across
    categories.  A category appears in the output if it is significant
    in at least ``min_significant`` countries (default: a majority).
    """
    windows_lists = dataset.select(Platform.WINDOWS, metric, month, countries)
    android_lists = dataset.select(Platform.ANDROID, metric, month, countries)
    shared = sorted(set(windows_lists) & set(android_lists))
    if not shared:
        raise ValueError("no countries present on both platforms")
    if min_significant is None:
        min_significant = len(shared) // 2 + 1

    dist_w = dataset.distribution(Platform.WINDOWS, metric)
    dist_a = dataset.distribution(Platform.ANDROID, metric)
    labels = CategoryCodes.of(labels, dataset.vocabulary())

    scores: dict[str, list[float]] = {}
    significant: dict[str, int] = {}
    volumes_a: dict[str, list[float]] = {}
    volumes_w: dict[str, list[float]] = {}

    # Collect every category×country cell, then run the whole Fisher
    # grid through one batched call (the kernel memoizes repeated count
    # pairs); Bonferroni stays per-country over that country's slice.
    per_country: list[tuple[list[str], dict[str, float], dict[str, float]]] = []
    cells_a: list[float] = []
    cells_w: list[float] = []
    for country in shared:
        vol_w = weighted_volume_by_category(windows_lists[country], labels, dist_w, top_n)
        vol_a = weighted_volume_by_category(android_lists[country], labels, dist_a, top_n)
        categories = sorted(set(vol_w) | set(vol_a))
        per_country.append((categories, vol_a, vol_w))
        for category in categories:
            cells_a.append(vol_a.get(category, 0.0))
            cells_w.append(vol_w.get(category, 0.0))
    results = proportion_test_batch(cells_a, cells_w, effective_n)

    offset = 0
    for categories, vol_a, vol_w in per_country:
        p_values = [r.p_value for r in results[offset:offset + len(categories)]]
        offset += len(categories)
        rejected = bonferroni(p_values, alpha)
        for category, reject in zip(categories, rejected):
            a = vol_a.get(category, 0.0)
            w = vol_w.get(category, 0.0)
            volumes_a.setdefault(category, []).append(a)
            volumes_w.setdefault(category, []).append(w)
            if reject:
                significant[category] = significant.get(category, 0) + 1
                scores.setdefault(category, []).append(normalized_difference(a, w))

    out = []
    for category, n_sig in sorted(significant.items()):
        if n_sig < min_significant:
            continue
        out.append(
            PlatformDifference(
                category=category,
                median_score=median(scores[category]),
                n_significant=n_sig,
                n_countries=len(shared),
                median_android=median(volumes_a[category]),
                median_windows=median(volumes_w[category]),
            )
        )
    out.sort(key=lambda d: d.median_score)
    return out


def split_by_leaning(
    differences: list[PlatformDifference],
) -> tuple[list[PlatformDifference], list[PlatformDifference]]:
    """(desktop-leaning, mobile-leaning) categories, each sorted by |score|."""
    desktop = sorted(
        (d for d in differences if not d.mobile_leaning), key=lambda d: d.median_score
    )
    mobile = sorted(
        (d for d in differences if d.mobile_leaning), key=lambda d: -d.median_score
    )
    return desktop, mobile
