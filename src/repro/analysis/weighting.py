"""Shared traffic-weighting helpers.

Several analyses "model the percent of page loads and time on page per
category by computing a weighted count of sites per category with our
traffic distribution data from Section 4.1" — i.e. the site at rank r
contributes the traffic share of rank r rather than 1.  These helpers
implement that weighted counting over ranked lists.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Iterable, Mapping

import numpy as np

from ..core.distribution import TrafficDistribution
from ..core.rankedlist import RankedList

UNKNOWN = "Unknown"


def count_by_category(
    ranked: RankedList,
    labels: Mapping[str, str],
    top_n: int | None = None,
) -> dict[str, int]:
    """Plain site counts per category over the top-N of a list."""
    sites = ranked.sites if top_n is None else ranked.top(top_n).sites
    return dict(Counter(map(labels.get, sites, repeat(UNKNOWN))))


def category_shares(
    sites: Iterable[str], labels: Mapping[str, str]
) -> dict[str, float]:
    """Fraction of ``sites`` per category (sums to 1; empty for no sites)."""
    counts = Counter(map(labels.get, sites, repeat(UNKNOWN)))
    total = sum(counts.values())
    return {c: n / total for c, n in counts.items()} if total else {}


def share_by_category(
    ranked: RankedList,
    labels: Mapping[str, str],
    top_n: int | None = None,
) -> dict[str, float]:
    """Fraction of top-N *domains* per category (sums to 1)."""
    return category_shares(
        ranked.sites if top_n is None else ranked.top(top_n).sites, labels
    )


def weighted_volume_by_category(
    ranked: RankedList,
    labels: Mapping[str, str],
    distribution: TrafficDistribution,
    top_n: int | None = None,
    normalize: bool = True,
) -> dict[str, float]:
    """Traffic-weighted category volumes over the top-N of a list.

    The site at rank r contributes ``distribution.share_of_rank(r)``.
    With ``normalize=True`` the result is the share of *modelled top-N
    traffic* per category (sums to 1); otherwise it is the share of all
    traffic (sums to the distribution's cumulative share at N).
    """
    sites = ranked.sites if top_n is None else ranked.top(top_n).sites
    if not sites:
        return {}
    weights = distribution.weights(len(sites))
    volumes: dict[str, float] = {}
    for position, category in enumerate(map(labels.get, sites, repeat(UNKNOWN))):
        volumes[category] = volumes.get(category, 0.0) + float(weights[position])
    if normalize:
        total = sum(volumes.values())
        if total > 0:
            volumes = {c: v / total for c, v in volumes.items()}
    return volumes


def per_site_share(
    ranked: RankedList,
    distribution: TrafficDistribution,
    top_n: int | None = None,
) -> dict[str, float]:
    """Estimated traffic share per individual site (rank → curve weight)."""
    sites = ranked.sites if top_n is None else ranked.top(top_n).sites
    weights = distribution.weights(len(sites)) if sites else np.empty(0)
    return {site: float(weights[i]) for i, site in enumerate(sites)}


def average_over_countries(
    per_country: Mapping[str, Mapping[str, float]],
    categories: tuple[str, ...] | None = None,
) -> dict[str, float]:
    """Mean per-category value across countries (the paper's global view).

    Countries missing a category contribute 0 for it, so the averages
    are comparable across categories.
    """
    if not per_country:
        return {}
    if categories is None:
        seen: set[str] = set()
        for mapping in per_country.values():
            seen.update(mapping)
        categories = tuple(sorted(seen))
    n = len(per_country)
    return {
        category: sum(m.get(category, 0.0) for m in per_country.values()) / n
        for category in categories
    }
